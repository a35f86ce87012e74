package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"libra/internal/telemetry"
)

// Problem is a constrained minimization over an n-vector.
type Problem struct {
	N int
	// Objective must be finite on the feasible set; +Inf outside is fine.
	// Unless Options.Workers is 1, the starts of a batch (see
	// MinimizeContext) run concurrently, so the objective (and Grad) must
	// be safe for concurrent calls — pure functions of x, as every closure
	// in this repository is.
	Objective func(x []float64) float64
	// Grad is optional; nil uses central finite differences.
	Grad func(x []float64) []float64
	Cons *Constraints
}

// Sentinel option values. The zero value of an Options field selects the
// documented default, so "the default" and "explicitly zero" collide for
// Tol and Seed; these sentinels say "literally zero" unambiguously.
const (
	// TolExact requests an exactly-zero improvement tolerance (any
	// negative Tol does; this constant is the readable spelling).
	TolExact = -1.0
	// SeedZero requests the literal PRNG seed 0 (plain Seed: 0 selects
	// the default seed, 1).
	SeedZero = math.MinInt64
)

// Options tunes the solver. Zero values select the documented defaults;
// negative counts are rejected by Minimize. Fields whose zero value is
// also a meaningful setting (Tol, Seed) have sentinel spellings above.
type Options struct {
	// MaxIters bounds local-search iterations per start (default 600).
	MaxIters int
	// Tol is the relative objective-improvement stopping tolerance.
	// 0 selects the default 1e-9; negative values (use TolExact) select
	// an exactly-zero tolerance.
	Tol float64
	// Starts sizes the multistart (default 8): the seed set holds up to
	// Starts + N points (N the problem dimension; one more with a
	// WarmStart), heuristic seeds first, then seeded-random points, so
	// Starts: 1 on a 4-variable problem can still run 5 starts. The
	// early exits (Convex, WarmTol) may stop the solve sooner.
	Starts int
	// Seed drives the deterministic PRNG for random starts. 0 selects
	// the default seed 1; use SeedZero for the literal seed 0.
	Seed int64
	// Convex declares the objective convex, enabling single-start early
	// exit once the local search converges.
	Convex bool
	// Workers bounds the goroutines running the starts of one batch
	// concurrently: 0 selects GOMAXPROCS, 1 runs every start on the
	// calling goroutine. Whatever the worker count, the result is
	// bit-identical for a fixed seed.
	Workers int
	// Strategy selects the per-start local search (default
	// StrategyProjectedGradient).
	Strategy Strategy
	// WarmStart, when non-empty, seeds the multistart with a known-good
	// solution from a neighboring problem (the previous point of a budget
	// or cap sweep). The vector is projected onto the feasible set and
	// runs as start 0, ahead of the regular deterministic seeds, which
	// are unchanged — a warm solve explores the cold seed set plus the
	// warm point. Its length must equal the problem dimension and every
	// entry must be finite (see Validate); a warm start that projects
	// outside the feasible set is dropped, falling back to the regular
	// multistart.
	WarmStart []float64
	// WarmTol enables the adaptive warm-start cutoff. The warm start and
	// the first cold (heuristic) start both run the full local search;
	// when the warm search converged and its objective matches or beats
	// the cold start's within a WarmTol relative margin, the neighbor's
	// basin has proven itself against the strongest cold seed and the
	// remaining starts are skipped. When the cold start wins by more than
	// the margin, the full multistart continues unchanged. 0 disables the
	// cutoff (the warm start joins a full multistart); negative or
	// non-finite values are rejected. Ignored without WarmStart.
	WarmTol float64
}

// DefaultWarmTol is the warm-start cutoff margin the sweep layers
// (frontier columns, cluster partition grids, figure sweeps) use: loose
// enough that two converged descents into one basin always match, tight
// enough that a genuinely better cold basin keeps the full multistart
// alive.
const DefaultWarmTol = 1e-6

// Validate checks o against an n-variable problem without solving:
// negative counts, unknown strategies, and malformed warm-start state
// (wrong length, NaN/±Inf entries, negative WarmTol) are rejected exactly
// as MinimizeContext would reject them. Pass n ≤ 0 to skip the
// warm-start length check when the dimension is not yet known.
func (o Options) Validate(n int) error {
	_, err := o.withDefaults(n)
	return err
}

func (o Options) withDefaults(n int) (Options, error) {
	if o.MaxIters < 0 {
		return o, fmt.Errorf("opt: negative MaxIters %d", o.MaxIters)
	}
	if o.Starts < 0 {
		return o, fmt.Errorf("opt: negative Starts %d", o.Starts)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("opt: negative Workers %d", o.Workers)
	}
	if o.WarmTol < 0 || math.IsNaN(o.WarmTol) || math.IsInf(o.WarmTol, 0) {
		return o, fmt.Errorf("opt: invalid WarmTol %v (want a finite value ≥ 0)", o.WarmTol)
	}
	if len(o.WarmStart) > 0 {
		if n > 0 && len(o.WarmStart) != n {
			return o, fmt.Errorf("opt: WarmStart has %d entries for an %d-variable problem", len(o.WarmStart), n)
		}
		for i, v := range o.WarmStart {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return o, fmt.Errorf("opt: WarmStart[%d] = %v is not finite", i, v)
			}
		}
	}
	strat, err := ParseStrategy(string(o.Strategy))
	if err != nil {
		return o, err
	}
	o.Strategy = strat // normalize aliases ("cd", "pgd") to canonical keys
	if o.MaxIters == 0 {
		o.MaxIters = 600
	}
	switch {
	case o.Tol < 0: // TolExact and friends
		o.Tol = 0
	case o.Tol == 0:
		o.Tol = 1e-9
	}
	if o.Starts == 0 {
		o.Starts = 8
	}
	switch o.Seed {
	case SeedZero:
		o.Seed = 0
	case 0:
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// Result reports the best point found.
type Result struct {
	X         []float64
	F         float64
	Starts    int
	Converged bool
	// WarmCut reports that the warm-start adaptive cutoff answered the
	// solve: the warm start converged, matched or beat the first cold
	// start within WarmTol, and the remaining starts were skipped.
	WarmCut bool
}

// Minimize solves the problem with deterministic multistart local search
// (projected gradient + Nelder-Mead polish by default; see Strategy). For
// convex problems the first converged start is returned.
func Minimize(p Problem, o Options) (Result, error) {
	return MinimizeContext(context.Background(), p, o) //libra:allow ctxflow compat wrapper: context-free entry point deliberately roots here
}

// MinimizeContext is Minimize under a context: the solve polls ctx between
// iterations and returns ctx.Err() (wrapped) as soon as the context is
// canceled or its deadline passes, discarding any partial progress.
//
// Starts run in seed order, in batches that end wherever an early exit
// may stop the solve: one start at a time under Convex, the warm start
// and the first cold start ahead of the rest under the warm cutoff, and
// every start at once otherwise. A batch runs on up to Options.Workers
// goroutines and is folded in seed order, so the returned
// X/F/Starts are bit-identical for every worker count, and only starts
// the selection can use are run.
//
// Warm-starting (Options.WarmStart) is equally deterministic: the warm
// point is prepended to the unchanged cold seed set, so a fixed
// (seed, warm vector) pair always yields the same result regardless of
// worker count, and a solve without WarmStart is bit-identical to one
// from before the seam existed.
func MinimizeContext(ctx context.Context, p Problem, o Options) (Result, error) {
	if p.N < 1 || p.Objective == nil || p.Cons == nil {
		return Result{}, fmt.Errorf("opt: problem needs N ≥ 1, an objective, and constraints")
	}
	if p.Cons.N() != p.N {
		return Result{}, fmt.Errorf("opt: constraints over %d variables for an %d-variable problem", p.Cons.N(), p.N)
	}
	o, err := o.withDefaults(p.N)
	if err != nil {
		return Result{}, err
	}

	seeds, warm := seedPoints(p, o)
	if len(seeds) == 0 {
		return Result{}, fmt.Errorf("opt: could not build any feasible start (empty feasible set?)")
	}

	res, err := multistart(ctx, p, seeds, o, warm)
	if err != nil {
		return res, err
	}
	// Solve-level accounting: one atomic bump per solve, nothing inside
	// the per-start searches.
	telemetry.SolverSolves.Inc()
	if warm {
		telemetry.SolverWarmSolves.Inc()
		if res.WarmCut {
			telemetry.SolverWarmCuts.Inc()
			if skipped := len(seeds) - res.Starts; skipped > 0 {
				telemetry.SolverStartsSkipped.Add(uint64(skipped))
			}
		}
	}
	return res, nil
}

// startOutcome is the product of one multistart start: a locally-searched
// point, its objective, and whether the search converged.
type startOutcome struct {
	x    []float64
	f    float64
	conv bool
}

// runStart performs the full per-start local search under the selected
// strategy. It is a pure function of (p, start, o) — scheduling cannot
// change its result — which is what makes a concurrent batch
// deterministic. Warm and cold starts run the identical search: the
// warm-start cutoff is a selection decision (see multistart), not a
// different per-start algorithm.
//
//libra:hotpath
func runStart(ctx context.Context, p Problem, start []float64, o Options) startOutcome {
	telemetry.SolverStarts.Inc()
	// One projector serves the whole start: the local search and the
	// polish project onto the same set.
	pr := newProjector(p.Cons)
	switch o.Strategy {
	case StrategyCoordinateDescent:
		x, f, conv := coordinateDescent(ctx, p, pr, start, o)
		return startOutcome{x: x, f: f, conv: conv}
	default: // StrategyProjectedGradient
		x, f, conv, pgdIters := projectedGradient(ctx, p, pr, start, o)
		// Polish with direct search from the PGD endpoint.
		x2, f2, nmIters := nelderMead(ctx, p, pr, x, o)
		// Iteration totals land as two atomic adds per start — the inner
		// loops stay untouched.
		telemetry.SolverPGDIterations.Add(uint64(pgdIters))
		telemetry.SolverNMIterations.Add(uint64(nmIters))
		if f2 < f {
			x, f = x2, f2
		}
		return startOutcome{x: x, f: f, conv: conv}
	}
}

// multistart runs the seeds in the batches MinimizeContext describes —
// under Convex one at a time, because the exit can fire after any
// converged start — and folds each batch in seed order (strict
// improvement, first-come ties) into the running best, deciding the two
// early exits: the convex exit and the warm-start adaptive cutoff.
func multistart(ctx context.Context, p Problem, seeds [][]float64, o Options, warm bool) (Result, error) {
	cutoff := warm && o.WarmTol > 0
	outs := make([]startOutcome, len(seeds))
	best := Result{F: math.Inf(1)}
	for lo := 0; lo < len(seeds); {
		hi := len(seeds)
		switch {
		case o.Convex:
			hi = lo + 1
		case cutoff && lo == 0:
			hi = min(2, hi)
		}
		runBatch(ctx, p, seeds[lo:hi], outs[lo:hi], o)
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("opt: solve canceled: %w", err)
		}
		for si := lo; si < hi; si++ {
			out := outs[si]
			if out.f < best.F {
				best = Result{X: out.x, F: out.f, Converged: out.conv}
			}
			best.Starts = si + 1
			if o.Convex && out.conv {
				return finish(best)
			}
			// Adaptive cutoff: the warm search converged and matched or
			// beat the strongest cold seed's full search within WarmTol,
			// so the neighbor's basin has proven itself and the remaining
			// starts are skipped.
			if cutoff && si == 1 && outs[0].conv && outs[0].f <= out.f+o.WarmTol*math.Max(math.Abs(out.f), 1e-12) {
				best.WarmCut = true
				return finish(best)
			}
		}
		lo = hi
	}
	return finish(best)
}

// runBatch runs one batch of starts into outs on up to o.Workers
// goroutines (inline when one suffices) and stops taking new starts once
// ctx is done. It returns only after every start has finished, so no
// objective call outlives the solve: callers are free to repurpose the
// objective closure as soon as MinimizeContext returns.
func runBatch(ctx context.Context, p Problem, seeds [][]float64, outs []startOutcome, o Options) {
	workers := min(o.Workers, len(seeds))
	if workers <= 1 {
		for i := 0; i < len(seeds) && ctx.Err() == nil; i++ {
			outs[i] = runStart(ctx, p, seeds[i], o)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seeds) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				outs[i] = runStart(ctx, p, seeds[i], o)
			}
		}()
	}
	wg.Wait()
}

func finish(best Result) (Result, error) {
	if best.X == nil {
		return Result{}, fmt.Errorf("opt: no start produced a finite objective")
	}
	return best, nil
}

// seedPoints builds deterministic feasible starting points: the optional
// projected warm start first, then the projected center of the box/budget,
// projected per-variable emphasis points, and seeded-random interior
// points. The PRNG is consumed fully before any start runs, so the seed
// set is independent of execution order. A warm start raises the seed cap
// by one, so the cold seeds — and the PRNG draws producing them — are
// exactly those of the equivalent cold solve. warm reports whether
// seeds[0] is the warm start.
func seedPoints(p Problem, o Options) (seeds [][]float64, warm bool) {
	n := p.N
	c := p.Cons
	// Estimate a characteristic scale from bounds or budget rows.
	scale := 1.0
	for i := 0; i < n; i++ {
		if !math.IsInf(c.Upper(i), 1) && c.Upper(i) > 0 {
			scale = math.Max(scale, c.Upper(i))
		}
	}
	for i, a := range c.eqA {
		pos := 0.0
		for _, v := range a {
			if v > 0 {
				pos += v
			}
		}
		if pos > 0 && c.eqB[i] > 0 {
			scale = math.Max(scale, c.eqB[i]/pos)
		}
	}
	for i, a := range c.ineqA {
		pos := 0.0
		for _, v := range a {
			if v > 0 {
				pos += v
			}
		}
		if pos > 0 && c.ineqB[i] > 0 {
			scale = math.Max(scale, c.ineqB[i]/pos)
		}
	}

	pr := newProjector(c)
	add := func(raw []float64) {
		x := clone(pr.project(raw))
		if !c.Feasible(x, 1e-6) {
			return
		}
		if math.IsInf(p.Objective(x), 1) {
			return
		}
		seeds = append(seeds, x)
	}
	// Warm start first: an infeasible or non-finite warm point is simply
	// dropped, falling back to the regular multistart.
	if len(o.WarmStart) > 0 {
		add(o.WarmStart)
		warm = len(seeds) == 1
	}
	limit := o.Starts + n
	if warm {
		limit++
	}
	// Equal split.
	eq := make([]float64, n)
	for i := range eq {
		eq[i] = scale / float64(n)
	}
	add(eq)
	// Emphasis on each variable.
	for i := 0; i < n; i++ {
		e := make([]float64, n)
		for j := range e {
			e[j] = scale / float64(4*n)
		}
		e[i] = scale / 2
		add(e)
	}
	// Geometric decay (inner dims carry more traffic in LIBRA problems).
	g := make([]float64, n)
	v := scale / 2
	for i := 0; i < n; i++ {
		g[i] = v
		v /= 2
	}
	add(g)
	// Seeded random interior points.
	rng := rand.New(rand.NewSource(o.Seed))
	for len(seeds) < limit {
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.Float64() * scale
		}
		add(r)
		if rng.Intn(1000) == 999 { // safety valve against infeasible models
			break
		}
	}
	if len(seeds) > limit {
		seeds = seeds[:limit]
	}
	return seeds, warm
}

// numGrad computes a central-difference gradient.
func numGrad(f func([]float64) float64, x []float64) []float64 {
	g := make([]float64, len(x))
	numGradInto(g, f, x, clone(x), clone(x))
	return g
}

// numGradInto computes a central-difference gradient into g, using xp/xm
// as perturbation scratch (each restored to x after its component), so a
// gradient-heavy local search performs zero allocations per gradient.
//
//libra:hotpath
func numGradInto(g []float64, f func([]float64) float64, x, xp, xm []float64) {
	copy(xp, x)
	copy(xm, x)
	for i := range x {
		h := 1e-6 * math.Max(1, math.Abs(x[i]))
		xp[i] += h
		xm[i] -= h
		fp, fm := f(xp), f(xm)
		if math.IsInf(fp, 1) || math.IsInf(fm, 1) {
			// One-sided fallback at feasibility edges.
			f0 := f(x)
			if !math.IsInf(fp, 1) {
				g[i] = (fp - f0) / h
			} else if !math.IsInf(fm, 1) {
				g[i] = (f0 - fm) / h
			} else {
				g[i] = 0
			}
		} else {
			g[i] = (fp - fm) / (2 * h)
		}
		xp[i] = x[i]
		xm[i] = x[i]
	}
}

// projectedGradient runs monotone projected gradient descent with
// backtracking line search from a feasible start. iters reports how many
// descent iterations executed, for the caller's telemetry.
//
//libra:hotpath
func projectedGradient(ctx context.Context, p Problem, pr *projector, start []float64, o Options) (x []float64, f float64, converged bool, iters int) {
	n := len(start)
	grad := p.Grad
	if grad == nil {
		gbuf, xp, xm := make([]float64, n), make([]float64, n), make([]float64, n)
		grad = func(x []float64) []float64 {
			numGradInto(gbuf, p.Objective, x, xp, xm)
			return gbuf
		}
	}
	cand := make([]float64, n)
	x = clone(start)
	f = p.Objective(x)
	step := 1.0
	stall := 0
	for iter := 0; iter < o.MaxIters; iter++ {
		iters = iter + 1
		if ctx.Err() != nil {
			return x, f, false, iters
		}
		g := grad(x)
		gn := norm2(g)
		if gn == 0 {
			return x, f, true, iters
		}
		// Scale the step to the current point magnitude.
		t := step * math.Max(norm2(x), 1) / gn
		improved := false
		for try := 0; try < 40; try++ {
			copy(cand, x)
			axpy(-t, g, cand)
			proj := pr.project(cand)
			fc := p.Objective(proj)
			if fc < f-1e-15*math.Abs(f) {
				copy(x, proj)
				f = fc
				improved = true
				step = math.Min(step*1.3, 4)
				break
			}
			t /= 2
		}
		if !improved {
			step = math.Max(step/4, 1e-6)
			stall++
			if stall >= 3 {
				return x, f, true, iters
			}
			continue
		}
		stall = 0
	}
	return x, f, false, iters
}

// nelderMead polishes a point with a penalized Nelder-Mead direct search;
// constraint violations are penalized quadratically, and the returned
// point is re-projected into the feasible set. iters reports how many
// simplex iterations executed, for the caller's telemetry.
//
//libra:hotpath
func nelderMead(ctx context.Context, p Problem, pr *projector, start []float64, o Options) (_ []float64, _ float64, iters int) {
	n := p.N
	mu := 1e6 * math.Max(1, math.Abs(p.Objective(start)))
	pen := func(x []float64) float64 {
		v := p.Cons.Violation(x)
		f := p.Objective(x)
		if math.IsInf(f, 1) {
			return 1e300 + mu*v
		}
		return f + mu*v*v
	}
	// Initial simplex around start.
	simplex := make([][]float64, n+1)
	fs := make([]float64, n+1)
	simplex[0] = clone(start)
	for i := 1; i <= n; i++ {
		s := clone(start)
		h := 0.05 * math.Max(math.Abs(s[i-1]), 1)
		s[i-1] += h
		simplex[i] = s
	}
	for i := range simplex {
		fs[i] = pen(simplex[i])
	}
	const (
		alpha = 1.0
		gamma = 2.0
		rho   = 0.5
		sigma = 0.5
	)
	order := func() {
		for i := 1; i < len(simplex); i++ {
			for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
				fs[j], fs[j-1] = fs[j-1], fs[j]
				simplex[j], simplex[j-1] = simplex[j-1], simplex[j]
			}
		}
	}
	// Per-iteration scratch, reused across iterations: the centroid, a
	// difference direction, and one buffer per candidate move. Accepted
	// candidates swap buffers with the worst vertex instead of allocating.
	cen := make([]float64, n)
	dif := make([]float64, n)
	refl := make([]float64, n)
	expd := make([]float64, n)
	con := make([]float64, n)
	for iter := 0; iter < 400*n; iter++ {
		iters = iter + 1
		if ctx.Err() != nil {
			break
		}
		order()
		if math.Abs(fs[n]-fs[0]) <= o.Tol*(math.Abs(fs[0])+1e-12) {
			break
		}
		// Centroid of all but worst.
		for j := range cen {
			cen[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cen[j] += simplex[i][j]
			}
		}
		for j := range cen {
			cen[j] /= float64(n)
		}
		for j := range dif {
			dif[j] = cen[j] - simplex[n][j]
		}
		copy(refl, cen)
		axpy(alpha, dif, refl)
		fr := pen(refl)
		switch {
		case fr < fs[0]:
			copy(expd, cen)
			axpy(gamma, dif, expd)
			if fe := pen(expd); fe < fr {
				simplex[n], expd = expd, simplex[n]
				fs[n] = fe
			} else {
				simplex[n], refl = refl, simplex[n]
				fs[n] = fr
			}
		case fr < fs[n-1]:
			simplex[n], refl = refl, simplex[n]
			fs[n] = fr
		default:
			for j := range dif {
				dif[j] = simplex[n][j] - cen[j]
			}
			copy(con, cen)
			axpy(rho, dif, con)
			if fc := pen(con); fc < fs[n] {
				simplex[n], con = con, simplex[n]
				fs[n] = fc
			} else {
				for i := 1; i <= n; i++ {
					for j := range dif {
						dif[j] = simplex[i][j] - simplex[0][j]
					}
					copy(simplex[i], simplex[0])
					axpy(sigma, dif, simplex[i])
					fs[i] = pen(simplex[i])
				}
			}
		}
	}
	order()
	best := clone(pr.project(simplex[0]))
	fb := p.Objective(best)
	if math.IsInf(fb, 1) {
		return clone(start), p.Objective(start), iters
	}
	return best, fb, iters
}
