package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/jobs"
	"libra/internal/task"
	"libra/internal/telemetry"
)

// warmSweep is the design-space-exploration workload: one closed-loop
// client submits /v2/jobs, follows each job's SSE event stream to its
// terminal event, then fetches the result. Five tasks in six are
// frontier sweeps over a seeded budget grid (every other one crossed
// with a cap axis), whose points warm-start from their neighbours and
// whose cap columns fan out through the engine's worker pool; the sixth
// is a Fig. 17 shared-fabric cluster study. Every budget is
// seeded-distinct, so no point is ever a cache hit.
//
// A frontier's cost swings tenfold with its problem and its shape, so
// frontier tasks are stratified: they cycle through a seeded permutation
// of the feasible (topology, workload) pairs, and each pair rotates, from
// seeded phases, through four budget floors, three budget spans, five to
// eight budget steps and a cap axis on every other visit; budgets and
// caps are jittered by up to 5%. Every seed thus sweeps the same mix of
// frontier shapes. Cluster studies alternate the two mixes and rotate
// the topology and three budget levels the same way.
type warmSweep struct {
	seed        int64
	cat         *catalog
	perm        []int
	offsets     [][4]int // per pair: phases of budget floor, step count, budget span and cap axis
	clusterSlot int
	clusterNets []string
}

// clusterMixes are the Fig. 17 job mixes: (a) the three LLMs, (b) a DNN
// mixture.
var clusterMixes = [][]string{
	{"Turing-NLG", "GPT-3", "MSFT-1T"},
	{"MSFT-1T", "DLRM", "ResNet-50"},
}

func newWarmSweep(seed int64, cat *catalog) *warmSweep {
	r := newRNG(seed, 0)
	w := &warmSweep{seed: seed, cat: cat, perm: r.perm(len(cat.combos)), clusterSlot: r.intn(6)}
	for range cat.combos {
		w.offsets = append(w.offsets, [4]int{r.intn(4), r.intn(4), r.intn(3), r.intn(2)})
	}
	for _, name := range topologies {
		ok := true
		for _, mix := range clusterMixes {
			for _, p := range mix {
				ok = ok && cat.nets[name].valid[p]
			}
		}
		if ok {
			w.clusterNets = append(w.clusterNets, name)
		}
	}
	return w
}

func (w *warmSweep) clients() int { return 1 }
func (w *warmSweep) setups() int  { return 15 }

func (w *warmSweep) prepare(context.Context, []*client) error { return nil }
func (w *warmSweep) verifyPrepared() (int, int, []float64)    { return 0, 0, nil }

// warmRequest is one generated task.
type warmRequest struct {
	task *task.Task
	body []byte
}

func (w *warmSweep) gen(i int) *warmRequest {
	r := newRNG(w.seed, uint64(i)+1)
	block, slot := i/6, i%6
	var t *task.Task
	if slot == w.clusterSlot {
		mix := clusterMixes[block%len(clusterMixes)]
		spec := &cluster.Spec{
			Topology:   w.clusterNets[(block/len(clusterMixes))%len(w.clusterNets)],
			BudgetGBps: round3((600 + 300*float64(block%3)) * (1 + 0.05*r.float())),
		}
		weighted := r.float() < 0.5
		for _, p := range mix {
			job := cluster.JobSpec{Preset: p}
			if weighted {
				wt := round3(0.5 + 1.5*r.float())
				job.Weight = &wt
			}
			spec.Jobs = append(spec.Jobs, job)
		}
		t = task.NewCluster(spec)
	} else {
		k := block*5 + slot
		if slot > w.clusterSlot {
			k--
		}
		cycle, ci := k/len(w.perm), w.perm[k%len(w.perm)]
		c, off := w.cat.combos[ci], w.offsets[ci]
		req := frontier.Request{
			BudgetMin:   round3((100 + 50*float64((cycle+off[0])%4)) * (1 + 0.05*r.float())),
			BudgetSteps: 5 + (cycle+off[1])%4,
		}
		req.BudgetMax = round3(req.BudgetMin + (300+100*float64((cycle+off[2])%3))*(1+0.05*r.float()))
		// The base spec must build; every point overrides its budget.
		spec := &core.ProblemSpec{Topology: c.topo, Workloads: []core.WorkloadSpec{{Preset: c.preset}}, BudgetGBps: req.BudgetMax}
		if (cycle+off[3])%2 == 1 {
			dims := w.cat.nets[c.topo].dims
			share := req.BudgetMax / float64(dims)
			req.CapDim = 1 + ((cycle+off[3])/2)%dims
			for _, f := range []float64{0.45, 0.75, 1.05} {
				req.CapsGBps = append(req.CapsGBps, round3(share*f*(1+0.05*r.float())))
			}
		}
		t = task.NewFrontier(spec, req)
	}
	body, err := json.Marshal(t)
	if err != nil {
		panic(err) // a generated task always marshals
	}
	return &warmRequest{task: t, body: body}
}

func (w *warmSweep) request(i int) []byte { return w.gen(i).body }

// jobTrace is what the client saw of one job.
type jobTrace struct {
	id       string
	status   jobs.Status
	created  time.Time
	started  time.Time
	events   int
	spans    []telemetry.Span
	terminal time.Time // when the client had read the terminal event
	result   json.RawMessage
}

func (w *warmSweep) op(ctx context.Context, c *client, i int) *outcome {
	req := w.gen(i)
	o := &outcome{i: i, payload: req}
	start := time.Now()
	o.job, o.err = runJob(ctx, c, req.body, reqID(i))
	o.lat = time.Since(start)
	if o.err == nil {
		w.check(o)
	}
	return o
}

// runJob submits a task, follows its event stream to the terminal event
// and fetches the finished job.
func runJob(ctx context.Context, c *client, body []byte, id string) (*jobTrace, error) {
	res, err := c.post(ctx, "/v2/jobs", body, id, http.StatusAccepted)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var sub jobs.Job
	if err := json.Unmarshal(res.body, &sub); err != nil || sub.ID == "" {
		return nil, fmt.Errorf("submit: undecodable job %q", res.body)
	}
	jt := &jobTrace{id: sub.ID}
	res, err = c.do(ctx, http.MethodGet, "/v2/jobs/"+sub.ID+"/events", nil, id, "")
	jt.terminal = time.Now()
	if err != nil {
		return jt, fmt.Errorf("events: %w", err)
	}
	if res.status != http.StatusOK {
		return jt, fmt.Errorf("events: %w", statusError(res))
	}
	if err := jt.parseEvents(res.body); err != nil {
		return jt, err
	}
	res, err = c.do(ctx, http.MethodGet, "/v2/jobs/"+sub.ID, nil, id, "")
	if err != nil {
		return jt, fmt.Errorf("fetch: %w", err)
	}
	if res.status != http.StatusOK {
		return jt, fmt.Errorf("fetch: %w", statusError(res))
	}
	var snap struct {
		Status  jobs.Status     `json:"status"`
		Created time.Time       `json:"created"`
		Started *time.Time      `json:"started"`
		Error   string          `json:"error"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(res.body, &snap); err != nil {
		return jt, fmt.Errorf("fetch: undecodable job: %w", err)
	}
	if snap.Status != jt.status {
		return jt, fmt.Errorf("job %s: stream ended %s, snapshot says %s", sub.ID, jt.status, snap.Status)
	}
	if snap.Status != jobs.StatusDone {
		return jt, fmt.Errorf("job %s ended %s: %s", sub.ID, snap.Status, snap.Error)
	}
	jt.created, jt.result = snap.Created, snap.Result
	if snap.Started != nil {
		jt.started = *snap.Started
	}
	return jt, nil
}

// parseEvents reads an SSE body: it must end with a terminal status
// event.
func (jt *jobTrace) parseEvents(body []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: undecodable event: %w", err)
		}
		jt.events++
		if ev.Span != nil {
			jt.spans = append(jt.spans, *ev.Span)
		}
		if ev.Type == jobs.EventStatus {
			jt.status = ev.Status
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if !jt.status.Terminal() {
		return fmt.Errorf("events: stream ended without a terminal event (last status %q)", jt.status)
	}
	return nil
}

// check verifies a finished job's payload: every frontier point solved
// with a non-empty Pareto set and EqualBW curve, every cluster policy
// reported without error. Frontier points record their gain over the
// frontier's own EqualBW curve at the same budget.
func (w *warmSweep) check(o *outcome) {
	req := o.payload.(*warmRequest)
	switch req.task.Kind {
	case task.KindFrontier:
		var fr frontier.Result
		if err := json.Unmarshal(o.job.result, &fr); err != nil {
			o.err = wrongf("undecodable frontier: %v", err)
			return
		}
		o.payload = &warmAnswer{req: req, frontier: &fr}
		if o.err = checkFrontier(req.task.Frontier, &fr); o.err != nil {
			return
		}
		o.gains = frontierGains(&fr)
	case task.KindCluster:
		var rep cluster.Report
		if err := json.Unmarshal(o.job.result, &rep); err != nil {
			o.err = wrongf("undecodable cluster report: %v", err)
			return
		}
		o.payload = &warmAnswer{req: req, cluster: &rep}
		o.err = checkCluster(&rep)
	}
}

// warmAnswer pairs a task with its decoded result, for the traced replay.
type warmAnswer struct {
	req      *warmRequest
	frontier *frontier.Result
	cluster  *cluster.Report
}

func checkFrontier(fs *task.FrontierSpec, fr *frontier.Result) error {
	caps := len(fs.Frontier.CapsGBps)
	if caps == 0 {
		caps = 1
	}
	if want := fs.Frontier.BudgetSteps * caps; len(fr.Points) != want {
		return wrongf("%d frontier points, want %d", len(fr.Points), want)
	}
	for _, pt := range fr.Points {
		if pt.Error != "" {
			return wrongf("frontier point at %v GB/s: %s", pt.BudgetGBps, pt.Error)
		}
		if !(pt.Result.WeightedTime > 0) {
			return wrongf("frontier point at %v GB/s has no iteration time", pt.BudgetGBps)
		}
	}
	if len(fr.Frontier) == 0 {
		return wrongf("empty Pareto set")
	}
	if len(fr.EqualBW) != fs.Frontier.BudgetSteps {
		return wrongf("%d EqualBW points, want %d", len(fr.EqualBW), fs.Frontier.BudgetSteps)
	}
	for _, pt := range fr.EqualBW {
		if pt.Error != "" || !(pt.Result.WeightedTime > 0) {
			return wrongf("EqualBW point at %v GB/s: %q", pt.BudgetGBps, pt.Error)
		}
	}
	return nil
}

// frontierGains are the frontier's points' gains over its EqualBW curve
// at the same budget.
func frontierGains(fr *frontier.Result) []float64 {
	eq := map[float64]float64{}
	for _, pt := range fr.EqualBW {
		eq[pt.BudgetGBps] = pt.Result.WeightedTime
	}
	var g []float64
	for _, pt := range fr.Points {
		g = append(g, eq[pt.BudgetGBps]/pt.Result.WeightedTime)
	}
	return g
}

func checkCluster(rep *cluster.Report) error {
	all := []string{cluster.PolicyGroupOpt, cluster.PolicyPartition, cluster.PolicyPerJobOpt}
	if len(rep.Policies) != len(all) {
		return wrongf("policies %v, want %v", rep.Policies, all)
	}
	for _, p := range all {
		found := false
		for _, s := range rep.Summary {
			if s.Policy == p {
				found = found || (s.Design != "" && s.WeightedTimeS > 0)
			}
		}
		if !found {
			return wrongf("policy %s missing from the summary", p)
		}
	}
	for _, j := range rep.Jobs {
		if j.Error != "" {
			return wrongf("job %s: %s", j.Name, j.Error)
		}
	}
	for _, d := range rep.Designs {
		if d.Error != "" {
			return wrongf("design %s: %s", d.Name, d.Error)
		}
	}
	if rep.Partition == nil || rep.Partition.Error != "" {
		return wrongf("partition policy did not produce a split")
	}
	return nil
}
