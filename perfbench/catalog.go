package main

import (
	"fmt"

	"libra/internal/core"
	"libra/internal/cost"
	"libra/internal/topology"
	wl "libra/internal/workload"
)

// topologies are the Table III presets with at least three dimensions.
var topologies = []string{
	topology.Name4D4K, topology.Name3D4K, topology.Name3D512,
	topology.Name3D1K, topology.Name4D2K, topology.Name3DTorus,
}

// combo is one (topology, Table II workload) pair the program can solve.
type combo struct {
	topo   string
	preset string
}

// netInfo is what the generators need to know about a topology to emit
// only feasible specs: its dimension count, its Table I dollar rates and
// which workload presets map onto it.
type netInfo struct {
	dims  int
	rates []float64
	valid map[string]bool
}

// catalog enumerates the feasible (topology, workload) pairs once per
// run; every generator draws from it.
type catalog struct {
	nets   map[string]*netInfo
	combos []combo
}

func newCatalog() (*catalog, error) {
	c := &catalog{nets: map[string]*netInfo{}}
	for _, name := range topologies {
		net, err := topology.Preset(name)
		if err != nil {
			return nil, err
		}
		rates, err := cost.Rates(cost.Default(), net)
		if err != nil {
			return nil, err
		}
		info := &netInfo{dims: net.NumDims(), rates: rates, valid: map[string]bool{}}
		for _, preset := range wl.PresetNames() {
			spec := &core.ProblemSpec{Topology: name, Workloads: []core.WorkloadSpec{{Preset: preset}}, BudgetGBps: 500}
			p, err := spec.Build()
			if err != nil {
				continue
			}
			if _, err := p.NewEvaluator(); err != nil {
				continue // the workload's strategy does not map onto this network
			}
			info.valid[preset] = true
			c.combos = append(c.combos, combo{topo: name, preset: preset})
		}
		c.nets[name] = info
	}
	if len(c.combos) == 0 {
		return nil, fmt.Errorf("no feasible topology/workload pair")
	}
	return c, nil
}

// secondWorkload draws a preset other than first that maps onto topo,
// for a weighted two-workload mix.
func (c *catalog) secondWorkload(r *rng, topo, first string) string {
	var opts []string
	for _, p := range wl.PresetNames() {
		if p != first && c.nets[topo].valid[p] {
			opts = append(opts, p)
		}
	}
	return opts[r.intn(len(opts))]
}

// randomBW draws a valid bandwidth vector around an even split of budget.
func randomBW(r *rng, dims int, budget float64) topology.BWConfig {
	bw := make(topology.BWConfig, dims)
	share := budget / float64(dims)
	for d := range bw {
		bw[d] = round3(share * (0.2 + 1.6*r.float()))
	}
	return bw
}
