package opt

import (
	"math"
)

// Project returns the Euclidean projection of x0 onto the constraint
// polyhedron. A weighted simplex-box set ({w·x = b, lo ≤ x ≤ hi} with
// w > 0) is projected in closed form; any other set runs the primal
// active-set QP solver (Q = I), falling back to Dykstra's alternating
// projections if the active-set method stalls on a degenerate working
// set.
//
// Hot loops that project repeatedly onto one constraint set should hold a
// projector instead: Project builds one fresh on every call.
func Project(c *Constraints, x0 []float64) []float64 {
	pr := newProjector(c)
	return clone(pr.project(x0))
}

// projector performs repeated Euclidean projections onto one constraint
// set, reusing its scratch buffers across calls — the projection inner
// loops are the solver's allocation hot spot. The slice project returns
// aliases internal scratch: it is valid only until the next call, must be
// cloned if kept, and must never be fed back in as a later input. Not
// safe for concurrent use; each start owns one.
type projector struct {
	c   *Constraints
	n   int
	res []float64 // result buffer aliased by project's return value
	// Closed-form state, set by newProjector when the set is a weighted
	// simplex-box: the equality row's weights and right-hand side, and
	// scratch for the ≤ 2n sorted breakpoints. w is nil otherwise.
	w   []float64
	b   float64
	bps []float64

	// General-path state, built by initGeneral on first use so that
	// closed-form projectors never pay for it.
	general bool
	rows    []row
	y       []float64 // Dykstra: x + p_i scratch
	rp      []float64 // Dykstra: single-row projection scratch
	corr    []float64 // Dykstra: correction vectors, flat len(rows)·n
	prev    []float64 // Dykstra: previous iterate
	// prevCorr mirrors corr for the drift test.
	prevCorr  []float64
	inWorking []bool
	working   []int
	// corrZero[i] marks a correction vector known to be all-zero, enabling
	// dykstra's inactive-row fast path.
	corrZero []bool
	// Active-set KKT scratch: an augmented (A Aᵀ | rhs) system solved in
	// place per iteration, plus the candidate point and step direction.
	kktFlat []float64
	kktRows [][]float64
	lam     []float64
	z       []float64
	dir     []float64
}

func newProjector(c *Constraints) *projector {
	pr := &projector{c: c, n: c.n, res: make([]float64, c.n)}
	if w, b, ok := c.simplexBox(); ok {
		pr.w, pr.b = w, b
		pr.bps = make([]float64, 0, 2*c.n)
	}
	return pr
}

// simplexBox classifies the set: it reports the single equality row when
// the set is exactly box bounds plus one row w·x = b with finite positive
// weights, and that row meets the box (w·lo ≤ b ≤ w·hi). Every other
// shape — inequality rows, several equalities, a zero or negative weight,
// an empty set — is not handled in closed form.
func (c *Constraints) simplexBox() (w []float64, b float64, ok bool) {
	if len(c.ineqA) != 0 || len(c.eqA) != 1 {
		return nil, 0, false
	}
	w, b = c.eqA[0], c.eqB[0]
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return nil, 0, false
	}
	wlo, whi := 0.0, 0.0
	for i, wi := range w {
		if !(wi > 0) || math.IsInf(wi, 1) || c.lo[i] > c.hi[i] {
			return nil, 0, false
		}
		wlo += wi * c.lo[i]
		whi += wi * c.hi[i]
	}
	if b < wlo || b > whi {
		return nil, 0, false
	}
	return w, b, true
}

// project computes the projection of x0 into pr.res and returns it. x0
// must not alias a previous return value.
func (pr *projector) project(x0 []float64) []float64 {
	if pr.c.Feasible(x0, 1e-12) {
		copy(pr.res, x0)
		return pr.res
	}
	if pr.closedForm(x0) && pr.c.Feasible(pr.res, 1e-9) {
		return pr.res
	}
	if pr.activeSet(x0) && pr.c.Feasible(pr.res, 1e-7) {
		return pr.res
	}
	pr.dykstra(x0, 2000, 1e-12)
	return pr.res
}

// closedForm projects y onto a weighted simplex-box into pr.res and
// reports whether it handled the set. The projection is
// x = clip(y − λw, lo, hi), where λ solves g(λ) = w·x(λ) = b. g is
// nonincreasing and piecewise linear with kinks at the breakpoints
// (y_i − lo_i)/w_i and (y_i − hi_i)/w_i, so λ is found by bracketing b
// between two sorted breakpoints and solving the linear piece between
// them exactly. Allocation-free: the breakpoints live in pr.bps.
//
//libra:hotpath
func (pr *projector) closedForm(y []float64) bool {
	w, lo, hi, x := pr.w, pr.c.lo, pr.c.hi, pr.res
	if w == nil {
		return false
	}
	bps := pr.bps[:0]
	for i, wi := range w {
		if !math.IsInf(lo[i], -1) {
			bps = append(bps, (y[i]-lo[i])/wi)
		}
		if !math.IsInf(hi[i], 1) {
			bps = append(bps, (y[i]-hi[i])/wi)
		}
	}
	for i := 1; i < len(bps); i++ {
		for j := i; j > 0 && bps[j] < bps[j-1]; j-- {
			bps[j], bps[j-1] = bps[j-1], bps[j]
		}
	}
	// k is the first breakpoint with g ≤ b, so λ lies in the open piece
	// (a, c) = (bps[k−1], bps[k]), with a = −∞ when k = 0 and c = +∞ when
	// k = len(bps); g(a) > b ≥ g(c) makes the piece non-empty.
	k := 0
	for k < len(bps) && pr.g(y, bps[k]) > pr.b {
		k++
	}
	a, c := math.Inf(-1), math.Inf(1)
	if k > 0 {
		a = bps[k-1]
	}
	if k < len(bps) {
		c = bps[k]
	}
	num, den := -pr.b, 0.0
	for i, wi := range w {
		if v, ok := pr.pinned(i, y, a, c); ok {
			num += wi * v
		} else {
			num += wi * y[i]
			den += wi * wi
		}
	}
	lam := 0.0
	if den > 0 {
		lam = num / den
	}
	for i, wi := range w {
		if v, ok := pr.pinned(i, y, a, c); ok {
			x[i] = v
		} else {
			x[i] = math.Min(math.Max(y[i]-lam*wi, lo[i]), hi[i])
		}
	}
	return true
}

// pinned reports the bound variable i sits at throughout the piece
// (a, c): hi while λ stays at or below its hi breakpoint, lo while λ stays
// at or above its lo breakpoint. Otherwise the variable is free there.
func (pr *projector) pinned(i int, y []float64, a, c float64) (float64, bool) {
	wi, lo, hi := pr.w[i], pr.c.lo[i], pr.c.hi[i]
	if !math.IsInf(hi, 1) && (y[i]-hi)/wi >= c {
		return hi, true
	}
	if !math.IsInf(lo, -1) && (y[i]-lo)/wi <= a {
		return lo, true
	}
	return 0, false
}

// g evaluates w·clip(y − λw, lo, hi).
func (pr *projector) g(y []float64, lam float64) float64 {
	s := 0.0
	for i, wi := range pr.w {
		s += wi * math.Min(math.Max(y[i]-lam*wi, pr.c.lo[i]), pr.c.hi[i])
	}
	return s
}

// initGeneral materializes the row table and the active-set and Dykstra
// scratch the first time a projection needs the general path.
func (pr *projector) initGeneral() {
	if pr.general {
		return
	}
	pr.general = true
	rows := pr.c.rows()
	n, m := pr.n, len(rows)
	pr.rows = rows
	pr.y = make([]float64, n)
	pr.rp = make([]float64, n)
	pr.corr = make([]float64, m*n)
	pr.prev = make([]float64, n)
	pr.prevCorr = make([]float64, m*n)
	pr.inWorking = make([]bool, m)
	pr.working = make([]int, 0, m)
	pr.corrZero = make([]bool, m)
	pr.kktFlat = make([]float64, m*(m+1))
	pr.kktRows = make([][]float64, m)
	pr.lam = make([]float64, m)
	pr.z = make([]float64, n)
	pr.dir = make([]float64, n)
}

// dykstra implements Dykstra's alternating-projection algorithm over the
// polyhedron's halfspaces and hyperplanes, writing the result into pr.res.
// It converges to the exact Euclidean projection for convex sets; each
// elementary projection is closed-form.
func (pr *projector) dykstra(x0 []float64, maxSweeps int, tol float64) {
	pr.initGeneral()
	rows := pr.rows
	x := pr.res
	copy(x, x0)
	if len(rows) == 0 {
		return
	}
	n := pr.n
	// Dykstra correction vectors, one per constraint, zeroed per call.
	corr, prevCorr := pr.corr, pr.prevCorr
	for i := range corr {
		corr[i] = 0
		prevCorr[i] = 0
	}
	corrZero := pr.corrZero
	for i := range corrZero {
		corrZero[i] = true
	}
	prev := pr.prev
	copy(prev, x)
	y, proj := pr.y, pr.rp
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for i, r := range rows {
			// y = x + p_i, then project y onto constraint i.
			pi := corr[i*n : (i+1)*n]
			// Inactive inequality with a zero correction: y = x + 0 and
			// the halfspace projection returns y unchanged, so the whole
			// row op is a no-op — the dot product alone decides. Most rows
			// of a sweep-state polyhedron (slack bounds) take this path
			// every sweep.
			if corrZero[i] && !r.eq && dot(r.a, x) <= r.b {
				continue
			}
			copy(y, x)
			axpy(1, pi, y)
			projectRowInto(proj, r, y)
			zero := true
			for k := range x {
				pi[k] = y[k] - proj[k]
				if pi[k] != 0 {
					zero = false
				}
				x[k] = proj[k]
			}
			corrZero[i] = zero
		}
		// Stop only when the whole sweep state — iterate AND corrections —
		// has stopped moving. The iterate alone can sit still for a sweep
		// while the corrections rebalance and then escape (a transient
		// fixed point of x, not of the map), so watching x only can latch
		// onto a feasible non-projection point.
		drift := normDiff(x, prev)
		for i := range rows {
			drift += normDiff(corr[i*n:(i+1)*n], prevCorr[i*n:(i+1)*n])
		}
		if drift < tol*(1+norm2(x)) && pr.c.Feasible(x, 1e-9) {
			break
		}
		copy(prev, x)
		copy(prevCorr, corr)
	}
}

// projectRowInto projects y onto a single halfspace a·x ≤ b (or hyperplane
// a·x = b), writing into dst.
func projectRowInto(dst []float64, r row, y []float64) {
	v := dot(r.a, y) - r.b
	if !r.eq && v <= 0 {
		copy(dst, y)
		return
	}
	den := dot(r.a, r.a)
	if den == 0 {
		copy(dst, y)
		return
	}
	copy(dst, y)
	axpy(-v/den, r.a, dst)
}

func normDiff(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// activeSet solves min ½‖x−x0‖² s.t. the polyhedron, with a primal
// active-set method, writing the result into pr.res. Returns false if it
// fails to make progress (cycling or singular KKT), in which case the
// caller should fall back to Dykstra.
func (pr *projector) activeSet(x0 []float64) bool {
	pr.initGeneral()
	rows := pr.rows
	// Feasible start: a few Dykstra sweeps are enough to get inside.
	pr.dykstra(x0, 300, 1e-11)
	x := pr.res
	if !pr.c.Feasible(x, 1e-7) {
		return false
	}

	// Working set: all equalities plus inequalities active at x.
	const actTol = 1e-8
	working := pr.working[:0]
	inWorking := pr.inWorking
	for i := range inWorking {
		inWorking[i] = false
	}
	for i, r := range rows {
		if r.eq || math.Abs(dot(r.a, x)-r.b) < actTol {
			working = append(working, i)
			inWorking[i] = true
		}
	}

	for iter := 0; iter < 200; iter++ {
		// Solve the equality-constrained projection onto the working set:
		// min ½‖z−x0‖² s.t. a_w·z = b_w  →  KKT system in (z, λ).
		z, lambda, ok := pr.eqProject(x0, working)
		if !ok {
			// Degenerate working set: drop the most recently added row.
			if len(working) == 0 {
				return true
			}
			last := working[len(working)-1]
			if rows[last].eq {
				return false
			}
			inWorking[last] = false
			working = working[:len(working)-1]
			continue
		}
		dir := pr.dir
		for k := range dir {
			dir[k] = z[k] - x[k]
		}
		if norm2(dir) < 1e-10 {
			// At the working-set minimizer: check inequality multipliers.
			minLambda, minIdx := 0.0, -1
			for k, wi := range working {
				if rows[wi].eq {
					continue
				}
				if lambda[k] < minLambda {
					minLambda, minIdx = lambda[k], k
				}
			}
			if minIdx < 0 || minLambda > -1e-9 {
				return true // KKT satisfied
			}
			inWorking[working[minIdx]] = false
			working = append(working[:minIdx], working[minIdx+1:]...)
			continue
		}
		// Step toward z, stopping at the first blocking constraint.
		alpha, blocking := 1.0, -1
		for i, r := range rows {
			if inWorking[i] || r.eq {
				continue
			}
			ad := dot(r.a, dir)
			if ad <= 1e-12 {
				continue
			}
			room := (r.b - dot(r.a, x)) / ad
			if room < alpha {
				alpha, blocking = room, i
			}
		}
		if alpha < 0 {
			alpha = 0
		}
		axpy(alpha, dir, x)
		if blocking >= 0 {
			working = append(working, blocking)
			inWorking[blocking] = true
		}
	}
	return false
}

// eqProject solves min ½‖z−x0‖² s.t. a_w·z = b_w for all w in the working
// set, via the KKT system:
//
//	[ I  Aᵀ ] [z]   [x0]
//	[ A  0  ] [λ] = [b ]
//
// Eliminating z = x0 − Aᵀλ gives (A Aᵀ) λ = A x0 − b. The returned slices
// alias projector scratch, valid until the next call.
func (pr *projector) eqProject(x0 []float64, working []int) (z, lambda []float64, ok bool) {
	m := len(working)
	z = pr.z
	if m == 0 {
		copy(z, x0)
		return z, nil, true
	}
	rows := pr.rows
	kkt := pr.kktRows[:m]
	w := m + 1
	for i, wi := range working {
		r := pr.kktFlat[i*w : i*w+w]
		for j, wj := range working {
			r[j] = dot(rows[wi].a, rows[wj].a)
		}
		r[m] = dot(rows[wi].a, x0) - rows[wi].b
		kkt[i] = r
	}
	lam := pr.lam[:m]
	if !solveAugmented(kkt, lam) {
		return nil, nil, false
	}
	copy(z, x0)
	for i, wi := range working {
		axpy(-lam[i], rows[wi].a, z)
	}
	return z, lam, true
}

// solveAugmented runs Gaussian elimination with partial pivoting on an
// in-place augmented system [A|b] (n rows of length n+1), writing the
// solution into x. Returns false for (numerically) singular systems. The
// arithmetic matches solveDense exactly, minus the defensive copies.
func solveAugmented(m [][]float64, x []float64) bool {
	n := len(m)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return true
}
