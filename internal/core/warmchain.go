package core

import (
	"context"
	"math"

	"libra/internal/telemetry"
	"libra/internal/topology"
)

// WarmChain is the one warm-start loop every budget sweep shares. Run
// solves the points in order: each is seeded from the last point that
// succeeded, its BW scaled onto the new budget plane; a failed warm solve
// is retried cold once unless ctx is done; and under PerfOpt, where more
// budget can never cost time, a seeded point slower than its predecessor
// is re-solved cold and keeps the better answer.
type WarmChain struct {
	Objective Objective
	// Budgets lists each point's per-NPU budget, in solve order.
	Budgets []float64
	// Solve answers point i, seeded from warm, or cold when warm is nil.
	Solve func(ctx context.Context, i int, warm []float64) (EngineResult, error)
	// Cold re-solves point i for the guard, bypassing any cache that can
	// hold a warm answer under the point's key. Nil uses Solve cold.
	Cold func(ctx context.Context, i int) (EngineResult, error)
	// Progress, when set, ticks as each point's final answer lands.
	Progress *ProgressTracker
}

// ChainPoint is one point of a WarmChain, its error reported in place.
type ChainPoint struct {
	EngineResult
	Err error
}

// Run solves the chain and returns its points in Budgets order.
func (c WarmChain) Run(ctx context.Context) []ChainPoint {
	cold := c.Cold
	if cold == nil {
		cold = func(ctx context.Context, i int) (EngineResult, error) { return c.Solve(ctx, i, nil) }
	}
	out := make([]ChainPoint, len(c.Budgets))
	prev := -1 // last point that succeeded
	for i, budget := range c.Budgets {
		var warm []float64
		if prev >= 0 {
			warm = scaleWarmStart(out[prev].Result.BW, c.Budgets[prev], budget)
		}
		pt := &out[i]
		pt.EngineResult, pt.Err = c.Solve(ctx, i, warm)
		if pt.Err != nil && warm != nil && ctx.Err() == nil {
			pt.EngineResult, pt.Err = c.Solve(ctx, i, nil)
		}
		if pt.Err == nil && warm != nil && c.Objective == PerfOpt &&
			pt.Result.WeightedTime > out[prev].Result.WeightedTime*(1+1e-9) {
			telemetry.WarmGuardTrips.Inc()
			if r, err := cold(ctx, i); err == nil && r.Result.WeightedTime < pt.Result.WeightedTime {
				pt.Result = r.Result
				pt.Cached = false
			}
		}
		if pt.Err == nil {
			prev = i
		}
		c.Progress.Tick(pt.Err == nil && pt.Cached)
	}
	return out
}

// SpecChain is the WarmChain of base, with objective obj, over budgets,
// answered through optimize (typically (*Engine).Optimize). Point i
// solves a clone of base at budgets[i] with the warm vector attached. The
// guard's cold re-solve builds and solves the point's spec directly: the
// engine stores warm and cold answers under one fingerprint, so its cache
// could hand the warm answer back.
func SpecChain(optimize func(context.Context, *ProblemSpec) (EngineResult, error),
	base *ProblemSpec, obj Objective, budgets []float64) WarmChain {
	spec := func(i int, warm []float64) *ProblemSpec {
		s := base.Clone()
		s.BudgetGBps = budgets[i]
		if warm != nil { // after Clone, which drops json:"-" warm state
			sol := SolverSpec{}
			if s.Solver != nil {
				sol = *s.Solver
			}
			sol.WarmStart = warm
			s.Solver = &sol
		}
		return s
	}
	return WarmChain{
		Objective: obj,
		Budgets:   budgets,
		Solve: func(ctx context.Context, i int, warm []float64) (EngineResult, error) {
			return optimize(ctx, spec(i, warm))
		},
		Cold: func(ctx context.Context, i int) (EngineResult, error) {
			p, err := spec(i, nil).Build()
			if err != nil {
				return EngineResult{}, err
			}
			r, err := p.OptimizeContext(ctx)
			return EngineResult{Result: r}, err
		},
	}
}

// scaleWarmStart rescales a neighboring design point's bandwidth vector to
// a new budget, preserving the relative allocation: with the ΣB = budget
// row active, scaling by to/from lands exactly on the new budget plane,
// which is what keeps the projected warm start adjacent to the neighbor's
// optimum and lets the adaptive cutoff fire. Returns nil — no warm start —
// for unusable inputs.
func scaleWarmStart(bw topology.BWConfig, from, to float64) []float64 {
	if len(bw) == 0 || !(from > 0) || !(to > 0) {
		return nil
	}
	f := to / from
	out := make([]float64, len(bw))
	for i, v := range bw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		out[i] = v * f
	}
	return out
}
