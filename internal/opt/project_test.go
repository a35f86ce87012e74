package opt

import (
	"math"
	"math/rand"
	"testing"
)

// simplexBoxCase draws a random weighted simplex-box set over n ≤ 6
// variables: all-ones or positive weights, finite floors, finite or
// infinite caps, and a right-hand side inside [w·lo, w·hi] — pinned to
// w·lo when pin is set.
func simplexBoxCase(rng *rand.Rand, n int, weighted, pin bool) *Constraints {
	c := NewConstraints(n)
	w := make([]float64, n)
	wlo := 0.0
	for i := range w {
		w[i] = 1
		if weighted {
			w[i] = 0.1 + 10*rng.Float64()
		}
		c.SetLower(i, 10*rng.Float64())
		wlo += w[i] * c.Lower(i)
	}
	capped := rng.Intn(3) // 0: no caps, 1: some caps, 2: all caps
	whi := 0.0
	for i := range w {
		if capped == 2 || (capped == 1 && rng.Intn(2) == 0) {
			c.SetUpper(i, c.Lower(i)+50*rng.Float64())
		}
		whi += w[i] * c.Upper(i)
	}
	b := wlo
	if !pin {
		span := math.Min(whi-wlo, 500)
		b = wlo + span*rng.Float64()
	}
	return c.AddEQ(w, b)
}

// facePoint returns a point on a face of c's box (some coordinates at a
// bound), off the equality row unless the row happens to pass through it.
func facePoint(rng *rand.Rand, c *Constraints) []float64 {
	x := make([]float64, c.N())
	for i := range x {
		switch rng.Intn(3) {
		case 0:
			x[i] = c.Lower(i)
		case 1:
			if !math.IsInf(c.Upper(i), 1) {
				x[i] = c.Upper(i)
				continue
			}
			fallthrough
		default:
			x[i] = c.Lower(i) + 20*rng.Float64()
		}
	}
	return x
}

// activeSetProjection projects x0 with the general active-set projector
// and returns the exact minimizer over the working set it settles on. The
// raw iterate stops within 1e-10 of that point (activeSet's step-length
// exit), so the exact solve is what a 1e-12 comparison needs. ok is false
// when the active set declines or its working set is degenerate.
func activeSetProjection(c *Constraints, x0 []float64) (raw, exact []float64, ok bool) {
	gen := &projector{c: c, n: c.N(), res: make([]float64, c.N())}
	if !gen.activeSet(x0) || !c.Feasible(gen.res, 1e-7) {
		return nil, nil, false
	}
	raw = clone(gen.res)
	var working []int
	for i, r := range gen.rows {
		if r.eq || math.Abs(dot(r.a, raw)-r.b) < 1e-8 {
			working = append(working, i)
		}
	}
	z, _, ok := gen.eqProject(x0, working)
	if !ok {
		return nil, nil, false
	}
	return raw, clone(z), true
}

// TestClosedFormMatchesActiveSet: on every weighted simplex-box set the
// closed-form projection agrees with the general active-set projector —
// to 1e-12 relative with its working-set solution, to 1e-9 with its raw
// iterate — for points outside the set, on faces of its box and inside
// it.
func TestClosedFormMatchesActiveSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	compared := 0
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(5)
		weighted, pin := rng.Intn(2) == 0, rng.Intn(8) == 0
		c := simplexBoxCase(rng, n, weighted, pin)
		cf := newProjector(c)
		if cf.w == nil {
			t.Fatalf("trial %d: simplex-box set not classified for closed form", trial)
		}
		var x0 []float64
		switch trial % 3 {
		case 0: // outside: a far-away random point
			x0 = make([]float64, n)
			for i := range x0 {
				x0[i] = 400*rng.Float64() - 100
			}
		case 1: // on a face of the box
			x0 = facePoint(rng, c)
		default: // inside: the projection of a random point
			x0 = Project(c, facePoint(rng, c))
		}
		if !cf.closedForm(x0) {
			t.Fatalf("trial %d: closed form declined a classified set", trial)
		}
		got := clone(cf.res)
		if !c.Feasible(got, 1e-9) {
			t.Fatalf("trial %d: closed form %v infeasible (violation %g)", trial, got, c.Violation(got))
		}
		raw, exact, ok := activeSetProjection(c, x0)
		if !ok {
			// The active set declined (its 300 Dykstra sweeps did not reach
			// a feasible start, or a pinned row left a singular working
			// set): the general path's answer is then Dykstra's, which
			// converges to 1e-6 at best — and on a pinned row, whose set
			// is a single point, may not converge at all.
			gen := &projector{c: c, n: n, res: make([]float64, n)}
			gen.dykstra(x0, 2000, 1e-12)
			if !c.Feasible(gen.res, 1e-9) {
				continue
			}
			if d := normDiff(got, gen.res); d > 1e-6*math.Max(1, norm2(got)) {
				t.Fatalf("trial %d: closed form %v vs Dykstra %v (|Δ| %g)", trial, got, gen.res, d)
			}
			continue
		}
		compared++
		scale := math.Max(1, norm2(exact))
		if d := normDiff(got, exact); d > 1e-12*scale {
			t.Fatalf("trial %d (n=%d weighted=%v pin=%v): closed form %v vs active set %v (|Δ| %g)",
				trial, n, weighted, pin, got, exact, d)
		}
		if d := normDiff(got, raw); d > 1e-9*scale {
			t.Fatalf("trial %d: closed form %v vs raw active-set iterate %v (|Δ| %g)", trial, got, raw, d)
		}
	}
	if compared < 2400 {
		t.Fatalf("only %d of 3000 trials reached the active-set comparison", compared)
	}
}

// TestClosedFormPinnedRow: when the bounds pin the row (w·lo = b) the set
// is the single point lo, and the closed form returns it exactly.
func TestClosedFormPinnedRow(t *testing.T) {
	c := NewConstraints(3).SetAllLower(2).AddEQ([]float64{1, 2, 3}, 12)
	x := Project(c, []float64{40, -7, 3})
	for i, v := range x {
		if v != 2 {
			t.Fatalf("x[%d] = %v, want exactly 2 (pinned)", i, v)
		}
	}
}

// TestClosedFormDeclines: every set that is not a feasible weighted
// simplex-box — infeasible rows, inequality rows, two equalities,
// non-positive weights — reports "not handled", and project still answers
// through the general path.
func TestClosedFormDeclines(t *testing.T) {
	cases := map[string]*Constraints{
		"row below w·lo":  NewConstraints(3).SetAllLower(5).SumEquals(10),
		"row above w·hi":  NewConstraints(2).SumEquals(100).VarAtMost(0, 10).VarAtMost(1, 10),
		"inequality row":  NewConstraints(3).SumEquals(90).SetAllLower(0).Ordered(0, 1),
		"two equalities":  NewConstraints(3).SumEquals(90).SetAllLower(0).PairSumEquals(0, 1, 50),
		"zero weight":     NewConstraints(3).SetAllLower(0).AddEQ([]float64{1, 0, 1}, 10),
		"negative weight": NewConstraints(3).SetAllLower(0).AddEQ([]float64{1, -1, 1}, 10),
		"budget only ≤":   NewConstraints(3).SetAllLower(0).SumAtMost(10),
	}
	for name, c := range cases {
		pr := newProjector(c)
		x0 := []float64{30, -4, 12}[:c.N()]
		if pr.closedForm(x0) {
			t.Errorf("%s: closed form claimed the set", name)
		}
		got := clone(pr.project(x0))
		gen := &projector{c: c, n: c.N(), res: make([]float64, c.N())}
		if !gen.activeSet(x0) || !c.Feasible(gen.res, 1e-7) {
			gen.dykstra(x0, 2000, 1e-12)
		}
		for i := range got {
			if got[i] != gen.res[i] {
				t.Errorf("%s: project %v, general path %v", name, got, gen.res)
				break
			}
		}
	}
}

// TestClosedFormAllocFree: a closed-form projection allocates nothing.
func TestClosedFormAllocFree(t *testing.T) {
	c := NewConstraints(4).SumEquals(500).SetAllLower(0.1)
	c.VarAtMost(3, 50)
	pr := newProjector(c)
	x := []float64{900, -20, 70, 300}
	if allocs := testing.AllocsPerRun(100, func() { pr.project(x) }); allocs != 0 {
		t.Fatalf("closed-form project allocates %v times per call", allocs)
	}
}

// TestProjectorReuseBitIdentical: one projector reused across many
// projections returns exactly what a fresh projector per call returns,
// on both the closed-form and the general path, so sharing a projector
// across a start's seeds, search and polish cannot move a result.
func TestProjectorReuseBitIdentical(t *testing.T) {
	sets := map[string]*Constraints{
		"closed form": NewConstraints(4).SumEquals(500).SetAllLower(0.1).VarAtMost(3, 50),
		"general":     NewConstraints(4).SumEquals(500).SetAllLower(0.1).VarAtMost(3, 50).Ordered(0, 1),
	}
	for name, c := range sets {
		rng := rand.New(rand.NewSource(7))
		pr := newProjector(c)
		for k := 0; k < 200; k++ {
			x0 := make([]float64, 4)
			for i := range x0 {
				x0[i] = 1000*rng.Float64() - 200
			}
			fresh := Project(c, x0)
			reused := pr.project(x0)
			for i := range fresh {
				if math.Float64bits(fresh[i]) != math.Float64bits(reused[i]) {
					t.Fatalf("%s, input %d: reused %v, fresh %v", name, k, reused, fresh)
				}
			}
		}
	}
}
