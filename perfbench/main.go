// Command perfbench is the repository's end-to-end benchmark. It boots
// the stack cmd/libra-serve serves, in process, drives it over loopback
// HTTP with a seeded closed-loop workload, checks every answer, and
// prints every metric by name and unit; the last line of standard output
// is one JSON object with the results.
//
//	bash perfbench/run.sh --workload cold-optimize --seed 1 --seconds 25 --trace 0
//
// With --trace 1 the run measures the workload untraced, then boots a
// fresh deployment whose handler and disk tier pass through the
// benchmark's tracer, replays the same requests, times the calls into
// each layer's public functions, and reports per-layer metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain is re-checked on it.
const heldOutSeed = 7919

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cold-optimize", "warm-sweep", "cache-mix"}

// workload is one seeded traffic mix.
type workload interface {
	// clients is the number of closed-loop connections.
	clients() int
	// setups is how many times a run boots a deployment to time set-up.
	setups() int
	// prepare brings a freshly booted deployment to the state the
	// measured phase starts from; it is part of the timed set-up.
	prepare(ctx context.Context, cs []*client) error
	// verifyPrepared checks the answers prepare received, untimed, and
	// returns the gains over EqualBW they carry.
	verifyPrepared() (attempted, failed int, gains []float64)
	// op sends operation i and checks its answer; the check runs after
	// the latency is taken. A wrong answer sets the outcome's err.
	op(ctx context.Context, c *client, i int) *outcome
	// request returns the bytes that identify operation i, for the
	// stream digest.
	request(i int) []byte
	// replay times operation outcomes through the layers' public
	// functions, until the deadline.
	replay(ctx context.Context, l *layers, outs []*outcome, deadline time.Time)
}

func newWorkload(name string, seed int64, cat *catalog) (workload, error) {
	switch name {
	case "cold-optimize":
		return newColdOptimize(seed, cat), nil
	case "warm-sweep":
		return newWarmSweep(seed, cat), nil
	case "cache-mix":
		return newCacheMix(seed, cat)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// outcome is one finished operation: a request, or for the async
// workload a job from submission to fetched result.
type outcome struct {
	i   int
	lat time.Duration
	// err is set when the operation failed or its answer was wrong.
	err error
	// cached reports a sync answer the engine served from a cache tier;
	// engineKey is the engine's key for that answer.
	cached    bool
	engineKey string
	body      []byte
	payload   any
	job       *jobTrace
	// gains are the answer's gains over EqualBW, for gain_geomean.
	gains []float64
}

// phase is one closed-loop measurement. It keeps the latencies and gains
// of the operations that succeeded and the operations that failed; only
// the traced phase keeps every outcome (for the layer replay), so the
// benchmark's own memory does not grow with the program's throughput.
type phase struct {
	ops     int
	elapsed time.Duration
	mallocs uint64
	lats    []float64 // ms
	gains   []float64
	failed  []*outcome
	outs    []*outcome // every operation, in a traced phase
}

func (ph *phase) record(o *outcome) {
	if o.err != nil {
		ph.failed = append(ph.failed, o)
		return
	}
	ph.lats = append(ph.lats, ms(o.lat))
	ph.gains = append(ph.gains, o.gains...)
}

// reqID is operation i's X-Request-Id, the key the tracer joins on.
func reqID(i int) string { return "pb-" + strconv.Itoa(i) }

// drive runs the closed loop: every client sends its next operation as
// soon as the previous one completes, until the deadline passes or, with
// limit ≥ 0, until operations 0..limit-1 have been sent.
func drive(ctx context.Context, w workload, cs []*client, deadline time.Time, limit int, keep bool) *phase {
	var next atomic.Int64
	var mu sync.Mutex
	ph := &phase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				if limit < 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if limit >= 0 && i >= limit {
					return
				}
				o := w.op(ctx, c, i)
				mu.Lock()
				ph.ops++
				ph.record(o)
				if keep {
					ph.outs = append(ph.outs, o)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	sort.Slice(ph.outs, func(a, b int) bool { return ph.outs[a].i < ph.outs[b].i })
	return ph
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	workdir  string
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is a finished run.
type result struct {
	lines     []string
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced replay and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root (stamped into the results)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for deployments' files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	out, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func (r *result) json() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// run executes one benchmark run.
func run(ctx context.Context, cfg config) (*result, error) {
	if !(cfg.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	res := &result{}
	res.printf("perfbench workload=%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	res.printf("stamp: %s", stamp(cfg.root))

	// Set-up — generating the workload, booting a deployment and bringing
	// it to its starting state — runs several times; the last deployment
	// serves the measured phase.
	var setupTimes []float64
	var w workload
	var d *deployment
	var cs []*client
	for k := 0; k == 0 || k < w.setups(); k++ {
		if d != nil {
			closeAll(d, cs)
		}
		t0 := time.Now()
		cat, err := newCatalog()
		if err != nil {
			return nil, err
		}
		if w, err = newWorkload(cfg.workload, cfg.seed, cat); err != nil {
			return nil, err
		}
		d, err = boot(cfg.workdir, nil)
		if err != nil {
			return nil, err
		}
		cs = newClients(d, w.clients())
		if err := w.prepare(ctx, cs); err != nil {
			closeAll(d, cs)
			return nil, fmt.Errorf("prepare: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	attempted, failed, gains := w.verifyPrepared()

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	ph := drive(ctx, w, cs, deadline, -1, false)
	closeAll(d, cs)
	ph.gains = append(ph.gains, gains...)
	e2e := endToEnd(ph, setupTimes)
	attempted += ph.ops
	failed += len(ph.failed)

	res.printf("stream: %s", streamDigests(w, ph.ops))
	res.printf("held-out seed: %d (not used while tuning; re-check claimed gains on it)", heldOutSeed)
	e2e.metrics = append(e2e.metrics, metric{"peak_rss_mb", peakRSSMB(), "MB", "(process peak resident set)"})
	for _, m := range e2e.metrics {
		res.printf("%-16s %14.6g %-5s %s", m.name, m.value, m.unit, m.note)
	}
	// failed_ratio is 0 on a correct run, so it is printed here and
	// carried by the result's attempted and failed counts, not listed
	// among the metrics a later run is compared on.
	wrong := 0
	for k, o := range ph.failed {
		if isWrong(o.err) {
			wrong++
		}
		if k < 3 {
			res.printf("  error: op %d: %v", o.i, o.err)
		}
	}
	res.printf("%-16s %14.6g %-5s (%d measured operations failed, %d of them wrong answers; %d of %d set-up answers wrong)",
		"failed_ratio", ratio(failed, attempted), "ratio", len(ph.failed), wrong, failed-len(ph.failed), attempted-ph.ops)
	if !cfg.trace {
		res.metrics = e2e.metrics
		res.attempted, res.failed = attempted, failed
		return res, nil
	}

	lm, tAttempted, tFailed, err := tracedRun(ctx, cfg, w, ph, e2e)
	if err != nil {
		return nil, err
	}
	res.printf("per-layer metrics (traced replay of the same %d operations):", ph.ops)
	for _, m := range lm {
		res.printf("%-38s %14.6g %-10s %s", m.name, m.value, m.unit, m.note)
	}
	res.metrics = lm
	res.attempted, res.failed = attempted+tAttempted, failed+tFailed
	return res, nil
}

func newClients(d *deployment, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(d.url)
	}
	return cs
}

func closeAll(d *deployment, cs []*client) {
	for _, c := range cs {
		c.close()
	}
	d.close()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// e2eResult holds the end-to-end metrics of one measured phase.
type e2eResult struct {
	metrics []metric
	p50     float64
}

func endToEnd(ph *phase, setupTimes []float64) e2eResult {
	var r e2eResult
	r.p50 = median(ph.lats)
	pct, tv, beyond := tail(ph.lats)
	done := len(ph.lats)
	r.metrics = []metric{
		{"setup_s", median(setupTimes), "s", fmt.Sprintf("(median of %d set-ups)", len(setupTimes))},
		{"latency_p50_ms", r.p50, "ms", fmt.Sprintf("(%d samples)", done)},
		{"latency_tail_ms", tv, "ms", fmt.Sprintf("(p%g, %d of %d samples beyond)", pct, beyond, done)},
		{"ops_per_s", float64(done) / ph.elapsed.Seconds(), "1/s", fmt.Sprintf("(%d completed in %.3f s)", done, ph.elapsed.Seconds())},
		{"gain_geomean", geomean(ph.gains), "x", fmt.Sprintf("(over EqualBW, %d designs)", len(ph.gains))},
	}
	return r
}

// wrongAnswer marks an answer that arrived but failed its check.
type wrongAnswer struct{ msg string }

func (e wrongAnswer) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error { return wrongAnswer{fmt.Sprintf(format, args...)} }

func isWrong(err error) bool {
	var w wrongAnswer
	return errors.As(err, &w)
}

// streamDigests digests the requests a run sent: the first 256 of the
// stream (comparable between any two runs of a seed) and all n sent.
func streamDigests(w workload, n int) string {
	const fixed = 256
	hFixed, hAll := sha256.New(), sha256.New()
	for i := 0; i < n || i < fixed; i++ {
		b := w.request(i)
		if i < fixed {
			hFixed.Write(b)
		}
		if i < n {
			hAll.Write(b)
		}
	}
	return fmt.Sprintf("first %d requests sha256:%s; %d sent sha256:%s",
		fixed, hex.EncodeToString(hFixed.Sum(nil))[:16], n, hex.EncodeToString(hAll.Sum(nil))[:16])
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
