package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/frontier"
)

func testCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := newCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestGeneratorDeterministic(t *testing.T) {
	cat := testCatalog(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := newWorkload(name, 5, cat)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newWorkload(name, 5, cat)
			other, _ := newWorkload(name, 6, cat)
			same, differ := 0, 0
			for i := 0; i < 300; i++ {
				if !bytes.Equal(a.request(i), b.request(i)) {
					t.Fatalf("seed 5 request %d differs between generators", i)
				}
				if bytes.Equal(a.request(i), other.request(i)) {
					same++
				} else {
					differ++
				}
			}
			if differ == 0 {
				t.Fatalf("seeds 5 and 6 generate the same %d requests", same)
			}
		})
	}
}

// TestColdRequestsDistinct: every cold-optimize request must miss the
// cache, so no two requests of a run may share a spec.
func TestColdRequestsDistinct(t *testing.T) {
	w := newColdOptimize(3, testCatalog(t))
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		fp, err := w.gen(i).spec.Fingerprint()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if j, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d share a spec", j, i)
		}
		seen[fp] = i
	}
}

func TestCheckerRejectsTamperedOptimize(t *testing.T) {
	w := newColdOptimize(1, testCatalog(t))
	engine := core.NewEngine(core.EngineConfig{CacheSize: -1})
	defer engine.Close()
	// Cover a capped, a dollar-budgeted and a perf-per-cost request.
	var cases []int
	var capped, dollars, ppc bool
	for i := 0; len(cases) < 3 && i < 200; i++ {
		req := w.gen(i)
		switch {
		case req.capDim > 0 && !capped:
			capped = true
		case req.dollars > 0 && !dollars:
			dollars = true
		case req.spec.Objective != "" && !ppc:
			ppc = true
		default:
			continue
		}
		cases = append(cases, i)
	}
	for _, i := range cases {
		req := w.gen(i)
		er, err := engine.Optimize(context.Background(), req.spec)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(er)
		o := &outcome{i: i, payload: req, body: body}
		w.check(o)
		if o.err != nil || len(o.gains) != 1 || !(o.gains[0] >= 1) {
			t.Fatalf("request %d: genuine answer rejected: %v (gains %v)", i, o.err, o.gains)
		}

		off := er
		off.Result.BW = append(off.Result.BW[:0:0], er.Result.BW...)
		off.Result.BW[0] *= 1.01
		body, _ = json.Marshal(off)
		o = &outcome{i: i, payload: req, body: body}
		w.check(o)
		if !isWrong(o.err) {
			t.Fatalf("request %d: bandwidths off budget accepted (err %v)", i, o.err)
		}

		fp := er
		fp.Fingerprint = "0" + er.Fingerprint[1:]
		body, _ = json.Marshal(fp)
		o = &outcome{i: i, payload: req, body: body}
		w.check(o)
		if !isWrong(o.err) {
			t.Fatalf("request %d: foreign fingerprint accepted (err %v)", i, o.err)
		}
	}
}

func TestCheckerRejectsDifferentRepeat(t *testing.T) {
	first := []byte("{\n  \"result\": {\n    \"bw\": [1, 2]\n  },\n  \"fingerprint\": \"ab\",\n  \"cached\": false,\n  \"elapsed_ms\": 1.5\n}\n")
	again := bytes.Replace(first, []byte(`"cached": false`), []byte(`"cached": true`), 1)
	if cached, err := sameAnswer(first, again); err != nil || !cached {
		t.Fatalf("identical repeat: cached %v, err %v", cached, err)
	}
	tampered := bytes.Replace(again, []byte("[1, 2]"), []byte("[1, 3]"), 1)
	if _, err := sameAnswer(first, tampered); !isWrong(err) {
		t.Fatalf("repeat with different bandwidths accepted (err %v)", err)
	}
	// A reordered body takes the decoding path and is still compared.
	reordered := []byte(`{"cached": true, "fingerprint": "ab", "result": {"bw": [1, 3]}}`)
	if _, err := sameAnswer(first, reordered); !isWrong(err) {
		t.Fatalf("reordered repeat with different bandwidths accepted (err %v)", err)
	}
}

func TestCheckerRejectsBrokenJobs(t *testing.T) {
	w := newWarmSweep(1, testCatalog(t))
	engine := core.NewEngine(core.EngineConfig{CacheSize: -1})
	defer engine.Close()
	var fs, cs bool
	for i := 0; i < 12 && !(fs && cs); i++ {
		req := w.gen(i)
		if ft := req.task.Frontier; ft != nil && !fs {
			fs = true
			fr, err := frontier.Compute(context.Background(), engine, ft.Spec, ft.Frontier)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkFrontier(ft, fr); err != nil {
				t.Fatalf("genuine frontier rejected: %v", err)
			}
			fr.Points[len(fr.Points)/2].Error = "solve failed"
			if err := checkFrontier(ft, fr); !isWrong(err) {
				t.Fatalf("frontier with a failed point accepted (err %v)", err)
			}
		}
		if ct := req.task.Cluster; ct != nil && !cs {
			cs = true
			rep, err := cluster.Compute(context.Background(), engine, ct)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCluster(rep); err != nil {
				t.Fatalf("genuine cluster report rejected: %v", err)
			}
			rep.Summary = rep.Summary[1:]
			if err := checkCluster(rep); !isWrong(err) {
				t.Fatalf("cluster report missing a policy accepted (err %v)", err)
			}
		}
	}
	if !fs || !cs {
		t.Fatalf("generator produced frontier %v, cluster %v in 12 tasks", fs, cs)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the runs must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestShortRunEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(context.Background(), config{workload: name, seed: 1, seconds: 0.3, trace: trace, root: "..", workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.failed, res.attempted)
			}
			got := map[string]string{}
			for _, m := range res.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s reported with unit %q, want %q", name, trace, m.Name, unit, m.Unit)
				}
			}
		}
	}
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTailLadder(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if pct, _, beyond := tail(xs); pct != 99 || beyond != 10 {
		t.Fatalf("1000 samples: p%v with %d beyond, want p99 with 10", pct, beyond)
	}
	if pct, _, beyond := tail(xs[:999]); pct != 95 || beyond != 49 {
		t.Fatalf("999 samples: p%v with %d beyond, want p95 with 49", pct, beyond)
	}
}
