package main

import (
	"context"
	"encoding/json"
	"math"
	"time"

	"libra/internal/core"
	"libra/internal/cost"
	"libra/internal/task"
)

// coldOptimize is the cold-solve workload: one closed-loop client sends
// /v2/tasks optimize requests, each for a distinct spec, so every
// request misses the memory and the disk tier and the spec build, the
// time model and the multistart solver do the work.
//
// Request i is drawn from its own seeded stream. Requests come in blocks
// of ten with one perf-per-cost request per block. Perf requests cycle
// through a seeded permutation of the feasible (topology, workload)
// pairs with random budgets; 40% add a weighted second workload, a
// quarter use the TP-DP overlap loop, a quarter carry a dimension cap and
// 15% an iso-cost dollar budget, both set so the EqualBW design stays
// feasible. Perf-per-cost solves cost up to a hundred times a perf solve
// and their cost swings with the budget, so they are stratified: each
// cycle visits every pair once, at one of four budget levels (jittered
// by 1% so specs stay distinct), and four cycles cover every pair at
// every level. Every seed thus solves the same mix of problem shapes,
// which keeps throughput comparable between seeds.
type coldOptimize struct {
	seed     int64
	cat      *catalog
	perfPerm []int
	ppcPerm  []int
	ppcLevel []int // per pair, the budget level of its first visit
	ppcSlot  int
}

// ppcBudgets are the perf-per-cost budget levels (GB/s).
var ppcBudgets = []float64{250, 450, 650, 850}

func newColdOptimize(seed int64, cat *catalog) *coldOptimize {
	r := newRNG(seed, 0)
	return &coldOptimize{
		seed:     seed,
		cat:      cat,
		perfPerm: r.perm(len(cat.combos)),
		ppcPerm:  r.perm(len(cat.combos)),
		ppcLevel: r.perm(len(cat.combos)),
		ppcSlot:  r.intn(10),
	}
}

func (w *coldOptimize) clients() int { return 1 }
func (w *coldOptimize) setups() int  { return 15 }

func (w *coldOptimize) prepare(context.Context, []*client) error { return nil }
func (w *coldOptimize) verifyPrepared() (int, int, []float64)    { return 0, 0, nil }

// coldRequest is one generated optimize request plus what its answer
// must satisfy.
type coldRequest struct {
	spec *core.ProblemSpec
	body []byte
	// capDim (1-based, 0 = none) and capGBps mirror a dim-cap constraint;
	// dollars (0 = none) mirrors a dollar-budget constraint.
	capDim  int
	capGBps float64
	dollars float64
}

func (w *coldOptimize) gen(i int) *coldRequest {
	r := newRNG(w.seed, uint64(i)+1)
	block, slot := i/10, i%10
	n := len(w.cat.combos)
	if slot == w.ppcSlot {
		cycle, k := block/n, w.ppcPerm[block%n]
		c := w.cat.combos[k]
		level := ppcBudgets[(cycle+w.ppcLevel[k])%len(ppcBudgets)]
		spec := &core.ProblemSpec{
			Topology:   c.topo,
			Workloads:  []core.WorkloadSpec{{Preset: c.preset}},
			BudgetGBps: round3(level * (1 + 0.01*r.float())),
			Objective:  "perf-per-cost",
		}
		return withBody(&coldRequest{spec: spec})
	}
	k := block*9 + slot
	if slot > w.ppcSlot {
		k--
	}
	c := w.cat.combos[w.perfPerm[k%n]]
	info := w.cat.nets[c.topo]
	spec := &core.ProblemSpec{Topology: c.topo, Workloads: []core.WorkloadSpec{{Preset: c.preset}}}
	if r.float() < 0.4 {
		spec.Workloads = append(spec.Workloads, core.WorkloadSpec{
			Preset: w.cat.secondWorkload(r, c.topo, c.preset),
			Weight: round3(0.25 + 1.75*r.float()),
		})
	}
	spec.BudgetGBps = round3(100 + 900*r.float())
	if r.float() < 0.25 {
		spec.Loop = "tp-dp-overlap"
	}
	req := &coldRequest{spec: spec}
	share := spec.BudgetGBps / float64(info.dims)
	switch u := r.float(); {
	case u < 0.25:
		req.capDim = 1 + r.intn(info.dims)
		req.capGBps = ceil3(share * (1 + 0.5*r.float()))
		spec.Constraints = []core.ConstraintSpec{core.DimCap(req.capDim, req.capGBps)}
	case u < 0.40:
		equal := 0.0
		for _, rate := range info.rates {
			equal += rate * share
		}
		req.dollars = ceil3(equal * (1 + 0.3*r.float()))
		spec.Constraints = []core.ConstraintSpec{core.DollarBudget(req.dollars)}
	}
	return withBody(req)
}

func withBody(req *coldRequest) *coldRequest {
	body, err := json.Marshal(task.NewOptimize(req.spec))
	if err != nil {
		panic(err) // a generated spec always marshals
	}
	req.body = body
	return req
}

func ceil3(v float64) float64 { return math.Ceil(v*1000) / 1000 }

func (w *coldOptimize) request(i int) []byte { return w.gen(i).body }

func (w *coldOptimize) op(ctx context.Context, c *client, i int) *outcome {
	req := w.gen(i)
	o := &outcome{i: i, payload: req}
	start := time.Now()
	res, err := c.post(ctx, "/v2/tasks", req.body, reqID(i), 200)
	o.lat = time.Since(start)
	if o.err, o.body = err, res.body; err == nil {
		w.check(o)
	}
	return o
}

// check verifies an optimize answer: the fingerprint is the spec's, the
// bandwidth vector is feasible (budget, floors, the spec's constraint),
// and its objective is no worse than the EqualBW design's, which every
// generated spec admits. It records the gain over EqualBW.
func (w *coldOptimize) check(o *outcome) {
	req := o.payload.(*coldRequest)
	var er core.EngineResult
	if err := json.Unmarshal(o.body, &er); err != nil {
		o.err = wrongf("undecodable answer: %v", err)
		return
	}
	o.cached = er.Cached
	fp, err := req.spec.Fingerprint()
	if err != nil {
		o.err = wrongf("spec does not fingerprint: %v", err)
		return
	}
	o.engineKey = "optimize|" + fp
	if er.Fingerprint != fp {
		o.err = wrongf("fingerprint %s, want %s", er.Fingerprint, fp)
		return
	}
	p, err := req.spec.Build()
	if err != nil {
		o.err = wrongf("spec does not build: %v", err)
		return
	}
	if err := checkFeasible(req, p, er.Result); err != nil {
		o.err = err
		return
	}
	eq, err := p.EqualBW()
	if err != nil {
		o.err = wrongf("EqualBW: %v", err)
		return
	}
	got, base := objective(p, er.Result), objective(p, eq)
	if got > base*(1+1e-9) {
		o.err = wrongf("objective %.9g worse than EqualBW's %.9g", got, base)
		return
	}
	o.gains = []float64{base / got}
}

// objective is the value the problem's objective minimizes.
func objective(p *core.Problem, r core.Result) float64 {
	if p.Objective == core.PerfPerCostOpt {
		return r.WeightedTime * r.Cost
	}
	return r.WeightedTime
}

// feasTol is the relative slack allowed on constraint rows; the solver's
// projections are exact to far better than this.
const feasTol = 1e-6

func checkFeasible(req *coldRequest, p *core.Problem, r core.Result) error {
	bw := r.BW
	if len(bw) != p.Net.NumDims() {
		return wrongf("%d bandwidths for a %dD network", len(bw), p.Net.NumDims())
	}
	rates, err := cost.Rates(p.Cost, p.Net)
	if err != nil {
		return wrongf("cost rates: %v", err)
	}
	sum, dollars := 0.0, 0.0
	for d, v := range bw {
		if !(v >= p.MinDimBW*(1-feasTol)) {
			return wrongf("dim %d bandwidth %v below the %v floor", d+1, v, p.MinDimBW)
		}
		sum += v
		dollars += rates[d] * v
	}
	if math.Abs(sum-p.BWBudget) > feasTol*p.BWBudget {
		return wrongf("bandwidths sum to %.9g, budget is %.9g", sum, p.BWBudget)
	}
	if req.capDim > 0 && bw[req.capDim-1] > req.capGBps*(1+feasTol) {
		return wrongf("dim %d bandwidth %v above its cap %v", req.capDim, bw[req.capDim-1], req.capGBps)
	}
	if req.dollars > 0 && dollars > req.dollars*(1+feasTol) {
		return wrongf("network costs $%.6g, dollar budget is $%.6g", dollars, req.dollars)
	}
	if math.Abs(dollars-r.Cost) > feasTol*dollars {
		return wrongf("reported cost $%.9g, bandwidths cost $%.9g", r.Cost, dollars)
	}
	return nil
}
