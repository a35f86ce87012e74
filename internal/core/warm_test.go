package core

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"libra/internal/opt"
	"libra/internal/topology"
	"libra/internal/workload"
)

// Warm-start state is runtime-only: it must never reach the canonical
// form, the fingerprint, or a serialized spec, and Clone must drop it —
// a warm solve and a cold solve of the same problem are the same cache
// entry.
func TestWarmStateExcludedFromSpecIdentity(t *testing.T) {
	cold := smallSpec(300)
	warm := smallSpec(300)
	warm.Solver.WarmStart = []float64{150, 150}
	warm.Solver.WarmTol = opt.DefaultWarmTol

	cfp, err := cold.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	wfp, err := warm.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if cfp != wfp {
		t.Errorf("warm state changed the fingerprint: %q vs %q", cfp, wfp)
	}
	ccanon, err := cold.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	wcanon, err := warm.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ccanon) != string(wcanon) {
		t.Errorf("warm state changed the canonical form:\n%s\n%s", ccanon, wcanon)
	}
	data, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(string(data)), "warm") {
		t.Errorf("warm state serialized: %s", data)
	}
	clone := warm.Clone()
	if clone.Solver == nil || clone.Solver.WarmStart != nil || clone.Solver.WarmTol != 0 {
		t.Errorf("Clone carried warm state: %+v", clone.Solver)
	}
}

// A warm solve and a cold solve of the same spec share one engine cache
// entry: whichever runs first populates it, the other hits.
func TestEngineCacheSharedBetweenWarmAndCold(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, CacheSize: 8})
	defer e.Close()
	ctx := context.Background()

	warm := smallSpec(300)
	warm.Solver.WarmStart = []float64{150, 150}
	r1, err := e.Optimize(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first (warm) solve reported cached")
	}
	r2, err := e.Optimize(ctx, smallSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("cold solve of the same spec missed the warm solve's cache entry")
	}
	if r2.Result.WeightedTime != r1.Result.WeightedTime {
		t.Errorf("cached result differs: %v vs %v", r2.Result.WeightedTime, r1.Result.WeightedTime)
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v; want 1 hit, 1 miss", s)
	}
}

// A warm spec without an explicit cutoff gets the standard one; explicit
// values and cold specs pass through untouched.
func TestSolverSpecOptionsWarmDefaults(t *testing.T) {
	warm := &SolverSpec{WarmStart: []float64{1, 2}}
	o, err := warm.options()
	if err != nil {
		t.Fatal(err)
	}
	if o.WarmTol != opt.DefaultWarmTol {
		t.Errorf("WarmTol = %v, want DefaultWarmTol", o.WarmTol)
	}
	explicit := &SolverSpec{WarmStart: []float64{1, 2}, WarmTol: 1e-3}
	if o, err = explicit.options(); err != nil || o.WarmTol != 1e-3 {
		t.Errorf("explicit WarmTol = %v (%v), want 1e-3", o.WarmTol, err)
	}
	cold := &SolverSpec{}
	if o, err = cold.options(); err != nil || o.WarmTol != 0 || o.WarmStart != nil {
		t.Errorf("cold spec grew warm state: %+v (%v)", o, err)
	}
}

func TestScaleWarmStart(t *testing.T) {
	got := scaleWarmStart(topology.BWConfig{30, 20, 10}, 60, 120)
	want := []float64{60, 40, 20}
	if len(got) != len(want) {
		t.Fatalf("scaled = %v, want %v", got, want)
	}
	for i := range want {
		if !approx(got[i], want[i], 1e-12) {
			t.Fatalf("scaled = %v, want %v", got, want)
		}
	}
	// Unusable inputs return nil — the caller falls back to a cold solve.
	bad := []struct {
		name string
		bw   topology.BWConfig
		from float64
		to   float64
	}{
		{"empty bw", nil, 60, 120},
		{"zero from", topology.BWConfig{30}, 0, 120},
		{"negative from", topology.BWConfig{30}, -1, 120},
		{"zero to", topology.BWConfig{30}, 60, 0},
		{"NaN entry", topology.BWConfig{math.NaN()}, 60, 120},
		{"Inf entry", topology.BWConfig{math.Inf(1)}, 60, 120},
	}
	for _, c := range bad {
		if got := scaleWarmStart(c.bw, c.from, c.to); got != nil {
			t.Errorf("%s: got %v, want nil", c.name, got)
		}
	}
}

// SolveBudget with a warm seed must agree with the cold solve within
// solver tolerance, and a nil warm vector must be the cold solve exactly.
func TestOptimizerSolveBudgetWarmMatchesCold(t *testing.T) {
	net, err := topology.Parse("RI(4)_SW(8)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.TuringNLG(32)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(net, 300, w)
	p.Objective = PerfPerCostOpt
	o, err := p.NewOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, err := o.SolveBudget(ctx, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := o.SolveBudget(ctx, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WeightedTime != cold2.WeightedTime {
		t.Errorf("cold SolveBudget not deterministic: %v vs %v", cold.WeightedTime, cold2.WeightedTime)
	}
	prev, err := o.SolveBudget(ctx, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := o.SolveBudget(ctx, 300, scaleWarmStart(prev.BW, 250, 300))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(warm.PerfPerCost()-cold.PerfPerCost()) / cold.PerfPerCost(); rel > 1e-2 {
		t.Errorf("warm solve diverged from cold: ppc %v vs %v (rel %.2e)",
			warm.PerfPerCost(), cold.PerfPerCost(), rel)
	}
}
