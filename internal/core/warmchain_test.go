package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"libra/internal/telemetry"
	"libra/internal/topology"
)

// chainCall records one closure call of a WarmChain: the point, and the
// seed Solve got (nil: cold), or guard for a Cold re-solve.
type chainCall struct {
	i     int
	warm  []float64
	guard bool
}

func TestWarmChainRun(t *testing.T) {
	errSolve := errors.New("solve failed")
	// good is the fake's usual answer at budget b: BW split evenly and a
	// time that falls with the budget, served from a cache.
	good := func(b float64) (EngineResult, error) {
		return EngineResult{Result: Result{BW: topology.BWConfig{b / 2, b / 2}, WeightedTime: 1 / b}, Cached: true}, nil
	}
	// slowWarm answers warm solves at budget 200 with a time that
	// regresses past every smaller budget.
	slowWarm := func(_ int, b float64, warm []float64) (EngineResult, error) {
		if warm != nil && b == 200 {
			return EngineResult{Result: Result{BW: topology.BWConfig{150, 50}, WeightedTime: 1}, Cached: true}, nil
		}
		return good(b)
	}
	cases := []struct {
		name     string
		obj      Objective
		budgets  []float64
		canceled bool
		solve    func(i int, b float64, warm []float64) (EngineResult, error)
		cold     func(b float64) (EngineResult, error) // nil: no Cold closure
		want     []chainCall
		times    []float64 // final WeightedTime per point; 0 marks a failed point
		cached   []bool
		trips    uint64
	}{{
		name:    "first point cold, later points seeded from the scaled neighbor",
		budgets: []float64{100, 200, 400},
		solve:   func(_ int, b float64, _ []float64) (EngineResult, error) { return good(b) },
		want:    []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}, {i: 2, warm: []float64{200, 200}}},
		times:   []float64{1. / 100, 1. / 200, 1. / 400},
		cached:  []bool{true, true, true},
	}, {
		name:    "failed point leaves the previous seed in place",
		budgets: []float64{100, 200, 400},
		solve: func(i int, b float64, _ []float64) (EngineResult, error) {
			if i == 1 {
				return EngineResult{}, errSolve
			}
			return good(b)
		},
		want:   []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}, {i: 1}, {i: 2, warm: []float64{200, 200}}},
		times:  []float64{1. / 100, 0, 1. / 400},
		cached: []bool{true, false, true},
	}, {
		name:    "warm error gets exactly one cold retry",
		budgets: []float64{100, 200},
		solve: func(_ int, b float64, warm []float64) (EngineResult, error) {
			if warm != nil {
				return EngineResult{}, errSolve
			}
			return good(b)
		},
		want:   []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}, {i: 1}},
		times:  []float64{1. / 100, 1. / 200},
		cached: []bool{true, true},
	}, {
		name:     "no cold retry once ctx is done",
		budgets:  []float64{100, 200},
		canceled: true,
		solve: func(_ int, b float64, warm []float64) (EngineResult, error) {
			if warm != nil {
				return EngineResult{}, errSolve
			}
			return good(b)
		},
		want:   []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}},
		times:  []float64{1. / 100, 0},
		cached: []bool{true, false},
	}, {
		name:    "PerfOpt regression is replaced by the Cold re-solve",
		budgets: []float64{100, 200, 400},
		solve:   slowWarm,
		cold:    good,
		want: []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}, {i: 1, guard: true},
			{i: 2, warm: []float64{200, 200}}},
		times:  []float64{1. / 100, 1. / 200, 1. / 400},
		cached: []bool{true, false, true},
		trips:  1,
	}, {
		name:    "PerfOpt guard without a Cold closure re-solves through Solve",
		budgets: []float64{100, 200},
		solve:   slowWarm,
		want:    []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}, {i: 1}},
		times:   []float64{1. / 100, 1. / 200},
		cached:  []bool{true, false},
		trips:   1,
	}, {
		name:    "PerfOpt guard keeps the warm answer when cold is no better",
		budgets: []float64{100, 200},
		solve:   slowWarm,
		cold:    func(float64) (EngineResult, error) { return EngineResult{Result: Result{WeightedTime: 2}}, nil },
		want:    []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}, {i: 1, guard: true}},
		times:   []float64{1. / 100, 1},
		cached:  []bool{true, true},
		trips:   1,
	}, {
		name:    "PerfPerCost is never guarded",
		obj:     PerfPerCostOpt,
		budgets: []float64{100, 200, 400},
		solve:   slowWarm,
		cold: func(float64) (EngineResult, error) {
			t.Error("Cold called on a PerfPerCost chain")
			return EngineResult{}, nil
		},
		want:   []chainCall{{i: 0}, {i: 1, warm: []float64{100, 100}}, {i: 2, warm: []float64{300, 100}}},
		times:  []float64{1. / 100, 1, 1. / 400},
		cached: []bool{true, true, true},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.canceled {
				cancel()
			}
			var calls []chainCall
			chain := WarmChain{
				Objective: c.obj,
				Budgets:   c.budgets,
				Solve: func(_ context.Context, i int, warm []float64) (EngineResult, error) {
					calls = append(calls, chainCall{i: i, warm: warm})
					return c.solve(i, c.budgets[i], warm)
				},
			}
			if c.cold != nil {
				chain.Cold = func(_ context.Context, i int) (EngineResult, error) {
					calls = append(calls, chainCall{i: i, guard: true})
					return c.cold(c.budgets[i])
				}
			}
			var last Progress
			chain.Progress = NewProgressTracker(WithProgress(ctx, func(p Progress) { last = p }), "chain", len(c.budgets))
			trips := telemetry.WarmGuardTrips.Value()
			pts := chain.Run(ctx)

			if !reflect.DeepEqual(calls, c.want) {
				t.Errorf("calls = %+v\nwant    %+v", calls, c.want)
			}
			if got := telemetry.WarmGuardTrips.Value() - trips; got != c.trips {
				t.Errorf("guard trips = %d, want %d", got, c.trips)
			}
			hits := 0
			for i, pt := range pts {
				if pt.Err == nil && pt.Cached {
					hits++
				}
				if failed := c.times[i] == 0; failed != (pt.Err != nil) {
					t.Errorf("point %d: err = %v, want failed=%v", i, pt.Err, failed)
				}
				if pt.Err == nil && pt.Result.WeightedTime != c.times[i] {
					t.Errorf("point %d: time = %v, want %v", i, pt.Result.WeightedTime, c.times[i])
				}
				if pt.Cached != c.cached[i] {
					t.Errorf("point %d: cached = %v, want %v", i, pt.Cached, c.cached[i])
				}
			}
			if last.Done != len(pts) || last.CacheHits != hits {
				t.Errorf("progress = %+v, want %d done, %d cache hits", last, len(pts), hits)
			}
		})
	}
}
