package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/frontier"
	"libra/internal/store"
	"libra/internal/task"
	"libra/internal/telemetry"
	"libra/internal/timemodel"
	"libra/internal/topology"
)

// layerMetric is one per-layer metric and the end-to-end metric it
// should move, on which workload.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists every per-layer metric in report order.
var layerMetrics = []layerMetric{
	{"server.self_us", "us", "latency_p50_ms, ops_per_s on cache-mix; <1% of a cold-optimize request"},
	{"server.encode_us", "us", "latency_p50_ms, ops_per_s on cache-mix"},
	{"task.parse_us", "us", "latency_p50_ms, ops_per_s on cache-mix"},
	{"task.fingerprint_us", "us", "latency_p50_ms, ops_per_s on cache-mix"},
	{"task.self_us", "us", "latency_p50_ms, ops_per_s on cache-mix"},
	{"core.build_us", "us", "latency_p50_ms on cache-mix"},
	{"core.fingerprint_us", "us", "latency_p50_ms on cache-mix"},
	{"core.engine_hit_us", "us", "latency_p50_ms on cache-mix"},
	{"core.mem_hit_ratio", "ratio", "latency_p50_ms on cache-mix"},
	{"core.coalesced_per_kreq", "1/kreq", "latency_p50_ms on cache-mix"},
	{"core.evictions_per_req", "1/req", "latency_p50_ms on cache-mix"},
	{"core.queue_wait_ms", "ms", "latency_tail_ms on warm-sweep and cold-optimize"},
	{"store.get_us", "us", "latency_tail_ms on cache-mix"},
	{"store.put_us", "us", "latency_tail_ms on cache-mix"},
	{"store.hit_ratio", "ratio", "latency_tail_ms on cache-mix"},
	{"store.compactions", "count", "latency_tail_ms on cache-mix"},
	{"opt.solve_perf_ms", "ms", "latency_p50_ms, ops_per_s on cold-optimize"},
	{"opt.solve_ppc_ms", "ms", "latency_tail_ms, ops_per_s on cold-optimize"},
	{"opt.starts_per_solve", "starts", "latency_p50_ms, ops_per_s on cold-optimize"},
	{"opt.pgd_iters_per_start", "iters", "latency_p50_ms, ops_per_s on cold-optimize"},
	{"opt.nm_iters_per_start", "iters", "latency_p50_ms, ops_per_s on cold-optimize"},
	{"opt.warm_cut_ratio", "ratio", "ops_per_s on warm-sweep"},
	{"opt.starts_skipped_per_warm_solve", "starts", "ops_per_s on warm-sweep"},
	{"timemodel.iteration_us", "us", "latency_p50_ms on cold-optimize"},
	{"frontier.compute_ms", "ms", "latency_p50_ms, latency_tail_ms, ops_per_s on warm-sweep"},
	{"frontier.ms_per_point", "ms", "latency_p50_ms, latency_tail_ms, ops_per_s on warm-sweep"},
	{"cluster.compute_ms", "ms", "latency_p50_ms, latency_tail_ms, ops_per_s on warm-sweep"},
	{"jobs.queue_ms", "ms", "latency_p50_ms on warm-sweep"},
	{"jobs.stream_lag_ms", "ms", "latency_p50_ms on warm-sweep"},
	{"jobs.events_per_job", "count", "latency_p50_ms on warm-sweep"},
	{"runtime.allocs_per_op", "allocs", "ops_per_s on every workload"},
	{"trace.overhead_ratio", "ratio", "none: traced over untraced latency_p50_ms, minus 1"},
}

// tracer records, from outside the program, where traced requests spend
// their time: the handler's wall time, the task: and engine: spans the
// program already emits (captured through telemetry.WithSpanRecorder),
// and every call into the disk tier.
type tracer struct {
	mu       sync.Mutex
	reqs     map[string]*reqTrace // by X-Request-Id, method and path
	gets     []float64            // µs per store Get
	puts     []float64            // µs per store Put
	diskHits map[string][]time.Time
}

type reqTrace struct {
	mu      sync.Mutex
	start   time.Time
	handler time.Duration
	spans   []telemetry.Span
}

func newTracer() *tracer {
	return &tracer{reqs: map[string]*reqTrace{}, diskHits: map[string][]time.Time{}}
}

func traceKey(id, method, path string) string { return id + " " + method + " " + path }

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := &reqTrace{}
		ctx := telemetry.WithSpanRecorder(r.Context(), func(sp telemetry.Span) {
			rt.mu.Lock()
			rt.spans = append(rt.spans, sp)
			rt.mu.Unlock()
		})
		rt.start = time.Now()
		h.ServeHTTP(w, r.WithContext(ctx))
		rt.handler = time.Since(rt.start)
		key := traceKey(r.Header.Get("X-Request-Id"), r.Method, r.URL.Path)
		t.mu.Lock()
		t.reqs[key] = rt
		t.mu.Unlock()
	})
}

func (t *tracer) request(id, method, path string) *reqTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqs[traceKey(id, method, path)]
}

// reset drops what set-up recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs = map[string]*reqTrace{}
	t.gets, t.puts = nil, nil
	t.diskHits = map[string][]time.Time{}
}

// diskHitDuring reports whether the disk tier answered key inside the
// window.
func (t *tracer) diskHitDuring(key string, from, to time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, at := range t.diskHits[key] {
		if !at.Before(from) && !at.After(to) {
			return true
		}
	}
	return false
}

func (t *tracer) wrapStore(s *store.Store) core.ResultStore { return &timedStore{s: s, t: t} }

// timedStore times the engine's calls into the disk tier.
type timedStore struct {
	s *store.Store
	t *tracer
}

func (ts *timedStore) Get(kind, key string) ([]byte, float64, bool) {
	start := time.Now()
	data, elapsed, ok := ts.s.Get(kind, key)
	d := time.Since(start)
	ts.t.mu.Lock()
	ts.t.gets = append(ts.t.gets, us(d))
	if ok {
		ts.t.diskHits[key] = append(ts.t.diskHits[key], start)
	}
	ts.t.mu.Unlock()
	return data, elapsed, ok
}

func (ts *timedStore) Put(kind, key string, data []byte, elapsedMS float64) error {
	start := time.Now()
	err := ts.s.Put(kind, key, data, elapsedMS)
	d := time.Since(start)
	ts.t.mu.Lock()
	ts.t.puts = append(ts.t.puts, us(d))
	ts.t.mu.Unlock()
	return err
}

func (ts *timedStore) Stats() core.DiskStats { return ts.s.Stats() }

// layers collects per-layer samples; durations are kept in the unit
// layerMetrics gives the metric.
type layers struct{ samples map[string][]float64 }

func newLayers() *layers { return &layers{samples: map[string][]float64{}} }

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layers) addDur(name string, d time.Duration) {
	for _, m := range layerMetrics {
		if m.name == name && m.unit == "ms" {
			l.add(name, ms(d))
			return
		}
	}
	l.add(name, us(d))
}

// time runs f and records its wall time under name.
func (l *layers) time(name string, f func()) {
	start := time.Now()
	f()
	l.addDur(name, time.Since(start))
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.
func selfTime(parent telemetry.Span, children []telemetry.Span) time.Duration {
	pStart := parent.Start
	pEnd := pStart.Add(spanDur(parent))
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.Start.Add(spanDur(c))
		if a.Before(pStart) {
			a = pStart
		}
		if b.After(pEnd) {
			b = pEnd
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return spanDur(parent) - covered
}

func spanDur(s telemetry.Span) time.Duration {
	return time.Duration(s.DurationMS * float64(time.Millisecond))
}

func splitSpans(spans []telemetry.Span) (tasks, engines []telemetry.Span) {
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "task:"):
			tasks = append(tasks, s)
		case strings.HasPrefix(s.Name, "engine:"):
			engines = append(engines, s)
		}
	}
	return tasks, engines
}

// counters is a snapshot of the program's own counters.
type counters struct {
	engine core.EngineStats
	disk   core.DiskStats
	tel    map[string]any
}

func snapshot(d *deployment) counters {
	return counters{engine: d.engine.Stats(), disk: d.store.Stats(), tel: telemetry.Default.Snapshot()}
}

func (c counters) tv(name string) float64 {
	v, _ := c.tel[name].(float64)
	return v
}

// solveSeconds is the engine's summed fresh-computation time.
func (c counters) solveSeconds() float64 {
	return c.tv(`libra_engine_solve_duration_seconds_sum{op="optimize"}`) +
		c.tv(`libra_engine_solve_duration_seconds_sum{op="evaluate"}`)
}

func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun boots a fresh traced deployment, replays the measured
// phase's operations against it, replays them again through the layers'
// public functions, and derives the per-layer metrics.
func tracedRun(ctx context.Context, cfg config, w workload, untraced *phase, e2e e2eResult) ([]metric, int, int, error) {
	tr := newTracer()
	d, err := boot(cfg.workdir, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	cs := newClients(d, w.clients())
	if err := w.prepare(ctx, cs); err != nil {
		closeAll(d, cs)
		return nil, 0, 0, fmt.Errorf("traced prepare: %w", err)
	}
	attempted, failed, _ := w.verifyPrepared()
	tr.reset()
	before := snapshot(d)
	ph := drive(ctx, w, cs, time.Time{}, untraced.ops, true)
	after := snapshot(d)
	closeAll(d, cs)
	traced := endToEnd(ph, nil)
	attempted += ph.ops
	failed += len(ph.failed)

	l := newLayers()
	var missSpanMS float64
	var misses int
	for _, o := range ph.outs {
		if o.err != nil {
			continue
		}
		if o.job != nil {
			// The submit and the fetch; the SSE stream's handler time is the
			// job's lifetime, not server work.
			for _, rq := range [][2]string{{http.MethodPost, "/v2/jobs"}, {http.MethodGet, "/v2/jobs/" + o.job.id}} {
				if rt := tr.request(reqID(o.i), rq[0], rq[1]); rt != nil {
					l.addDur("server.self_us", rt.handler)
				}
			}
			tasks, engines := splitSpans(o.job.spans)
			for _, s := range engines {
				missSpanMS += s.DurationMS
				misses++
			}
			if len(tasks) == 1 {
				l.addDur("task.self_us", selfTime(tasks[0], engines))
				end := tasks[0].Start.Add(spanDur(tasks[0]))
				l.addDur("jobs.stream_lag_ms", o.job.terminal.Sub(end))
			}
			l.addDur("jobs.queue_ms", o.job.started.Sub(o.job.created))
			l.add("jobs.events_per_job", float64(o.job.events))
			continue
		}
		rt := tr.request(reqID(o.i), http.MethodPost, "/v2/tasks")
		if rt == nil {
			continue
		}
		tasks, engines := splitSpans(rt.spans)
		self := rt.handler
		for _, s := range tasks {
			self -= spanDur(s)
		}
		l.addDur("server.self_us", self)
		if len(tasks) == 1 {
			l.addDur("task.self_us", selfTime(tasks[0], engines))
		}
		if len(engines) != 1 {
			continue
		}
		switch {
		case !o.cached:
			missSpanMS += engines[0].DurationMS
			misses++
		case !tr.diskHitDuring(o.engineKey, rt.start, rt.start.Add(rt.handler)):
			l.addDur("core.engine_hit_us", spanDur(engines[0]))
		}
	}
	for _, v := range tr.gets {
		l.add("store.get_us", v)
	}
	for _, v := range tr.puts {
		l.add("store.put_us", v)
	}

	w.replay(ctx, l, ph.outs, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))))

	ops := float64(len(ph.outs))
	de, dd := after.engine, before.engine
	lookups := float64(de.Hits-dd.Hits) + float64(de.Misses-dd.Misses) + float64(de.Coalesces-dd.Coalesces)
	diskHits := float64(after.disk.Hits - before.disk.Hits)
	diskMisses := float64(after.disk.Misses - before.disk.Misses)
	delta := func(name string) float64 { return after.tv(name) - before.tv(name) }
	solves := delta("libra_solver_solves_total")
	starts := delta("libra_solver_starts_total")
	warm := delta("libra_solver_warm_solves_total")
	computed := map[string]float64{
		"core.mem_hit_ratio":                per(float64(de.Hits-dd.Hits), lookups),
		"core.coalesced_per_kreq":           per(1000*float64(de.Coalesces-dd.Coalesces), ops),
		"core.evictions_per_req":            per(float64(de.Evictions-dd.Evictions), ops),
		"core.queue_wait_ms":                per(missSpanMS-1000*(after.solveSeconds()-before.solveSeconds()), float64(misses)),
		"store.hit_ratio":                   per(diskHits, diskHits+diskMisses),
		"store.compactions":                 float64(after.disk.Compactions - before.disk.Compactions),
		"opt.starts_per_solve":              per(starts, solves),
		"opt.pgd_iters_per_start":           per(delta("libra_solver_pgd_iterations_total"), starts),
		"opt.nm_iters_per_start":            per(delta("libra_solver_nm_iterations_total"), starts),
		"opt.warm_cut_ratio":                per(delta("libra_solver_warm_cuts_total"), warm),
		"opt.starts_skipped_per_warm_solve": per(delta("libra_solver_starts_skipped_total"), warm),
		"runtime.allocs_per_op":             per(float64(untraced.mallocs), float64(untraced.ops)),
		"trace.overhead_ratio":              per(traced.p50, e2e.p50) - 1,
	}

	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		m := metric{name: lm.name, unit: lm.unit}
		if v, ok := computed[lm.name]; ok {
			m.value = v
			m.note = "→ " + lm.moves
		} else if s := l.samples[lm.name]; len(s) > 0 {
			m.value = median(s)
			m.note = fmt.Sprintf("→ %s (median of %d)", lm.moves, len(s))
		} else {
			m.note = "→ " + lm.moves + " (no samples on this workload)"
		}
		out = append(out, m)
	}
	return out, attempted, failed, nil
}

// replayTask times one task's passage through the public functions of
// the layers a sync request crosses: envelope parse and fingerprint,
// spec build and fingerprint, the time model on the answer's
// bandwidths, and the JSON encoding of the answer payload. It returns
// the built problem (nil when the task carries no ProblemSpec).
func replayTask(l *layers, body []byte, payload any, bw topology.BWConfig) *core.Problem {
	var t *task.Task
	var err error
	l.time("task.parse_us", func() { t, err = task.Parse(body) })
	if err != nil {
		return nil
	}
	l.time("task.fingerprint_us", func() { _, err = t.Fingerprint() })
	if payload != nil {
		l.time("server.encode_us", func() { _, err = json.Marshal(payload) })
	}
	var spec *core.ProblemSpec
	switch t.Kind {
	case task.KindOptimize:
		spec = t.Optimize
	case task.KindEvaluate:
		spec = t.Evaluate.Spec
	case task.KindFrontier:
		spec = t.Frontier.Spec.Clone()
		spec.BudgetGBps = t.Frontier.Frontier.BudgetMax
	default:
		return nil
	}
	var p *core.Problem
	l.time("core.build_us", func() { p, err = spec.Build() })
	if err != nil {
		return nil
	}
	l.time("core.fingerprint_us", func() { _, err = p.Fingerprint() })
	if len(bw) == p.Net.NumDims() {
		est := &timemodel.Estimator{Net: p.Net, Compute: p.Compute, Loop: p.Loop, Policy: timemodel.Actual, InNetwork: p.InNetwork}
		for _, tg := range p.Targets {
			l.time("timemodel.iteration_us", func() { _, err = est.Iteration(tg.Workload, bw) })
		}
	}
	return p
}

// replay for cold-optimize re-solves every answered spec through
// core.Optimizer after the per-request layers.
func (w *coldOptimize) replay(ctx context.Context, l *layers, outs []*outcome, deadline time.Time) {
	for _, o := range outs {
		if time.Now().After(deadline) {
			return
		}
		if o.err != nil {
			continue
		}
		var er core.EngineResult
		if json.Unmarshal(o.body, &er) != nil {
			continue
		}
		p := replayTask(l, o.payload.(*coldRequest).body, er, er.Result.BW)
		if p == nil {
			continue
		}
		opt, err := p.NewOptimizer()
		if err != nil {
			continue
		}
		name := "opt.solve_perf_ms"
		if p.Objective == core.PerfPerCostOpt {
			name = "opt.solve_ppc_ms"
		}
		l.time(name, func() { _, err = opt.Solve(ctx) })
	}
}

// replay for warm-sweep recomputes every frontier and cluster task
// against a cache-less engine, so each point is solved again.
func (w *warmSweep) replay(ctx context.Context, l *layers, outs []*outcome, deadline time.Time) {
	engine := core.NewEngine(core.EngineConfig{CacheSize: -1})
	defer engine.Close()
	for _, o := range outs {
		if time.Now().After(deadline) {
			return
		}
		ans, ok := o.payload.(*warmAnswer)
		if o.err != nil || !ok {
			continue
		}
		t := ans.req.task
		switch t.Kind {
		case task.KindFrontier:
			replayTask(l, ans.req.body, ans.frontier, ans.frontier.Points[0].Result.BW)
			start := time.Now()
			fr, err := frontier.Compute(ctx, engine, t.Frontier.Spec, t.Frontier.Frontier)
			if err == nil {
				d := time.Since(start)
				l.addDur("frontier.compute_ms", d)
				l.addDur("frontier.ms_per_point", d/time.Duration(len(fr.Points)))
			}
		case task.KindCluster:
			replayTask(l, ans.req.body, ans.cluster, nil)
			l.time("cluster.compute_ms", func() { _, _ = cluster.Compute(ctx, engine, t.Cluster) })
		}
	}
}

// replay for cache-mix samples about two thousand requests evenly over
// the phase.
func (w *cacheMix) replay(ctx context.Context, l *layers, outs []*outcome, deadline time.Time) {
	stride := len(outs)/2000 + 1
	for k := 0; k < len(outs); k += stride {
		if time.Now().After(deadline) {
			return
		}
		o := outs[k]
		if o.err != nil {
			continue
		}
		op := w.gen(o.i)
		var body []byte
		var er core.EngineResult
		if op.fresh != nil {
			// The fresh answer was not kept; price it again for the encoder.
			body = op.fresh.body
			p, err := op.fresh.spec.Build()
			if err != nil {
				continue
			}
			if er.Result, err = p.Evaluate(op.fresh.bw); err != nil {
				continue
			}
			er.Fingerprint = op.fresh.fp
		} else {
			body = w.keys[op.key].body
			if json.Unmarshal(w.first[op.key].body, &er) != nil {
				continue
			}
		}
		var payload any = er
		if op.cond {
			payload = nil // a 304 encodes nothing
		}
		replayTask(l, body, payload, er.Result.BW)
	}
}
