package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// cell fetches a named column of row i.
func cell(t *testing.T, tbl *Table, i int, col string) string {
	t.Helper()
	for ci, h := range tbl.Header {
		if h == col {
			return tbl.Rows[i][ci]
		}
	}
	t.Fatalf("table %s has no column %q", tbl.ID, col)
	return ""
}

func cellF(t *testing.T, tbl *Table, i int, col string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tbl, i, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s row %d col %s: %v", tbl.ID, i, col, err)
	}
	return v
}

// matchGoldenCSV pins a warm-chained figure byte for byte: the table's
// CSV must equal testdata/<id>.csv, recorded in quick mode by
// `go run ./cmd/experiments -quick -only <id> -out <dir>`.
func matchGoldenCSV(t *testing.T, tbl *Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", tbl.ID+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s CSV drifted from testdata/%s.csv:\ngot:\n%s\nwant:\n%s", tbl.ID, tbl.ID, buf.Bytes(), want)
	}
}

func TestFig01Shape(t *testing.T) {
	tbl, err := Fig01CommSizes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("fig01 has %d rows", len(tbl.Rows))
	}
	// Volumes span several orders of magnitude and MSFT-1T tops the chart.
	var minV, maxV, msft float64 = 1e18, 0, 0
	for i := range tbl.Rows {
		v := cellF(t, tbl, i, "comm_MB")
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if cell(t, tbl, i, "model") == "MSFT-1T" {
			msft = v
		}
	}
	if maxV/minV < 1e3 {
		t.Errorf("fig01 range %v–%v too narrow (paper spans 4+ decades)", minV, maxV)
	}
	if msft != maxV {
		t.Errorf("MSFT-1T (%v) should top the chart (max %v)", msft, maxV)
	}
}

func TestFig09Shape(t *testing.T) {
	tbl, err := Fig09Pipeline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig09 rows = %d", len(tbl.Rows))
	}
	// (a): dim1 saturated, others underutilized.
	if u := cellF(t, tbl, 0, "util_dim1"); u < 90 {
		t.Errorf("(a) dim1 util = %v%%, want ≈ 100%%", u)
	}
	if u := cellF(t, tbl, 0, "util_dim2"); u > 60 {
		t.Errorf("(a) dim2 util = %v%%, want low", u)
	}
	// (b): dim2 is the bottleneck.
	if u := cellF(t, tbl, 1, "util_dim2"); u < 90 {
		t.Errorf("(b) dim2 util = %v%%, want ≈ 100%%", u)
	}
	// (c): with only 4 chunks the fill/drain bubbles of the 6-stage
	// pipeline cap utilization well below 1 (the paper's "inevitable
	// scheduling bubbles"), but it must clearly beat both starved cases.
	uc := cellF(t, tbl, 2, "avg_util")
	if uc < 55 {
		t.Errorf("(c) avg util = %v%%, want the bulk of the window busy", uc)
	}
	if ua, ub := cellF(t, tbl, 0, "avg_util"), cellF(t, tbl, 1, "avg_util"); uc <= ua || uc <= ub {
		t.Errorf("(c) avg util %v%% should beat (a) %v%% and (b) %v%%", uc, ua, ub)
	}
	// Proportional allocation finishes fastest.
	if mc, ma := cellF(t, tbl, 2, "makespan_ms"), cellF(t, tbl, 0, "makespan_ms"); mc >= ma {
		t.Errorf("(c) %vms should beat (a) %vms", mc, ma)
	}
}

func TestFig10Shape(t *testing.T) {
	tbl, err := Fig10Utilization(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig10 rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		eq := cellF(t, tbl, i, "equalBW_util")
		po := cellF(t, tbl, i, "perfopt_util")
		sp := cellF(t, tbl, i, "perfopt_speedup")
		if eq >= 100 || eq <= 0 {
			t.Errorf("row %d EqualBW util %v%% out of range", i, eq)
		}
		if po < eq-1e-6 {
			t.Errorf("row %d PerfOpt util %v%% below EqualBW %v%%", i, po, eq)
		}
		if sp < 1.0-1e-3 {
			t.Errorf("row %d PerfOpt speedup %v < 1", i, sp)
		}
	}
	// EqualBW wastes the most on the deeper hierarchies (paper: 3D lowest).
	if u2, u3 := cellF(t, tbl, 0, "equalBW_util"), cellF(t, tbl, 1, "equalBW_util"); u3 >= u2 {
		t.Errorf("3D EqualBW util %v%% should undercut 2D %v%%", u3, u2)
	}
}

func TestTable1AndFig12(t *testing.T) {
	tbl, err := Table1CostModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("table1 rows = %d", len(tbl.Rows))
	}
	fig12, err := Fig12CostExample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := cellF(t, fig12, 3, "dollars"); got != 1722 {
		t.Errorf("fig12 total = %v, want 1722", got)
	}
}

func TestFig13Fig14Shape(t *testing.T) {
	tbl, err := Fig13Fig14SpeedupSweep(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	matchGoldenCSV(t, tbl)
	if len(tbl.Rows) != 18 { // 3 workloads × 2 networks × 3 budgets
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	speedupOf := map[string][]float64{}
	for i := range tbl.Rows {
		w := cell(t, tbl, i, "workload")
		sp := cellF(t, tbl, i, "speedup_perfopt")
		ppc := cellF(t, tbl, i, "ppc_ppcopt")
		ppcPerf := cellF(t, tbl, i, "ppc_perfopt")
		if sp < 0.99 {
			t.Errorf("row %d: PerfOpt speedup %v < 1", i, sp)
		}
		if ppc < ppcPerf*(1-0.02) {
			t.Errorf("row %d: PerfPerCostOpt ppc %v loses to PerfOpt's %v", i, ppc, ppcPerf)
		}
		if ppc < 1 {
			t.Errorf("row %d: PerfPerCostOpt ppc %v < baseline", i, ppc)
		}
		speedupOf[w] = append(speedupOf[w], sp)
	}
	// Larger models gain more from PerfOpt (paper's key insight).
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if !(mean(speedupOf["MSFT-1T"]) > mean(speedupOf["GPT-3"])) ||
		!(mean(speedupOf["GPT-3"]) > mean(speedupOf["Turing-NLG"])) {
		t.Errorf("speedup ordering violated: %v", speedupOf)
	}
}

func TestFig15Shape(t *testing.T) {
	tbl, err := Fig15NonTransformer(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	matchGoldenCSV(t, tbl)
	for i := range tbl.Rows {
		if sp := cellF(t, tbl, i, "speedup_perfopt"); sp < 0.99 {
			t.Errorf("row %d PerfOpt speedup %v < 1", i, sp)
		}
		// Small workloads: big perf-per-cost headroom (paper's insight).
		if ppc := cellF(t, tbl, i, "ppc_ppcopt"); ppc < 2 {
			t.Errorf("row %d ppc %v; small models should show strong perf-per-cost gains", i, ppc)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	tbl, err := Fig16TopologyExploration(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	matchGoldenCSV(t, tbl)
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if sp := cellF(t, tbl, i, "speedup_perfopt"); sp < 0.99 {
			t.Errorf("row %d speedup %v < 1", i, sp)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	tbl, err := Fig17aGroupLLM(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var groupSlow, crossMax float64
	var groupN int
	for i := range tbl.Rows {
		slow := cellF(t, tbl, i, "slowdown_over_own_opt")
		if cell(t, tbl, i, "on_network_optimized_for") == "Group-Opt" {
			groupSlow += slow
			groupN++
		} else if slow > crossMax {
			crossMax = slow
		}
	}
	avgGroup := groupSlow / float64(groupN)
	if avgGroup > 1.10 {
		t.Errorf("group-opt average slowdown %v, want near-optimal (paper 1.01)", avgGroup)
	}
	if !(crossMax > avgGroup) {
		t.Errorf("cross-workload max slowdown %v should exceed group-opt average %v", crossMax, avgGroup)
	}
}

func TestFig18Shape(t *testing.T) {
	tbl, err := Fig18CostSensitivity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	matchGoldenCSV(t, tbl)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	prev := 1e18
	for i := range tbl.Rows {
		ppc := cellF(t, tbl, i, "ppc_vs_equalBW")
		if ppc < 1.5 {
			t.Errorf("row %d ppc %v, want clear benefit over EqualBW", i, ppc)
		}
		// Benefit shrinks as the cheap tier gets pricier (less headroom to
		// substitute): monotone non-increasing within tolerance.
		if ppc > prev*1.05 {
			t.Errorf("row %d ppc %v should not grow vs %v", i, ppc, prev)
		}
		prev = ppc
	}
}

func TestFig19Shape(t *testing.T) {
	tbl, err := Fig19Themis(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// iso-cost: LIBRA buys several × more bandwidth and a real speedup.
	bwEq := cellF(t, tbl, 0, "total_bw_GBps")
	bwLi := cellF(t, tbl, 1, "total_bw_GBps")
	if bwLi/bwEq < 2 {
		t.Errorf("iso-cost LIBRA BW %v vs EqualBW %v; paper sees 5.05x", bwLi, bwEq)
	}
	if sp := cellF(t, tbl, 1, "speedup"); sp < 1.2 {
		t.Errorf("iso-cost speedup %v, want > 1.2 (paper 2.24)", sp)
	}
	// iso-resource: LIBRA yields a large perf-per-cost win with Themis on.
	if ppc := cellF(t, tbl, 3, "ppc_vs_equalBW"); ppc < 2 {
		t.Errorf("iso-resource ppc %v, want strong benefit (paper 4.77x)", ppc)
	}
	if c := cellF(t, tbl, 3, "cost_$M"); c >= cellF(t, tbl, 2, "cost_$M") {
		t.Errorf("iso-resource LIBRA cost %v should undercut EqualBW %v", c, cellF(t, tbl, 2, "cost_$M"))
	}
}

func TestFig20Shape(t *testing.T) {
	tbl, err := Fig20Tacos(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// LIBRA designs must be decisively cheaper.
	if cLi := cellF(t, tbl, 2, "cost_$M"); cLi >= cellF(t, tbl, 0, "cost_$M") {
		t.Errorf("LIBRA torus cost %v should undercut EqualBW %v", cLi, cellF(t, tbl, 0, "cost_$M"))
	}
	// LIBRA+TACOS never loses to LIBRA-only and wins on perf-per-cost
	// against TACOS-only.
	if p2, p1 := cellF(t, tbl, 2, "perf_vs_equalBW+TACOS"), cellF(t, tbl, 1, "perf_vs_equalBW+TACOS"); p2 < p1-1e-9 {
		t.Errorf("LIBRA+TACOS perf %v below LIBRA-only %v", p2, p1)
	}
	if ppc := cellF(t, tbl, 2, "ppc_vs_equalBW+TACOS"); ppc < 1.3 {
		t.Errorf("LIBRA+TACOS ppc %v, want ≥ 1.3x over TACOS-only (paper 1.36x)", ppc)
	}
}

func TestFig21Shape(t *testing.T) {
	tbl, err := Fig21ParallelizationCoopt(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var sp []float64
	for i := range tbl.Rows {
		co := cellF(t, tbl, i, "speedup_perfopt_codesign")
		eq := cellF(t, tbl, i, "speedup_equalBW")
		if co < eq-0.02 {
			t.Errorf("row %d co-design %v loses to EqualBW %v", i, co, eq)
		}
		sp = append(sp, co)
	}
	// The co-designed optimum must be an interior strategy (the TP/DP
	// tradeoff peaks mid-range), beating the HP-(128,32) baseline.
	bestIdx, best := 0, 0.0
	for i, v := range sp {
		if v > best {
			best, bestIdx = v, i
		}
	}
	if bestIdx == 0 || bestIdx == len(sp)-1 {
		t.Errorf("co-design peak at boundary strategy (row %d); want interior peak", bestIdx)
	}
	if best < 1.1 {
		t.Errorf("peak co-design speedup %v, want > 1.1x over baseline (paper 1.19x)", best)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("hello %d", 7)
	s := tbl.String()
	for _, want := range []string{"== x: T ==", "a", "1", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestSaveWritesFiles(t *testing.T) {
	dir := t.TempDir()
	tbl := &Table{ID: "demo", Title: "T", Header: []string{"a"}}
	tbl.AddRow("1")
	if err := tbl.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"demo.csv", "demo.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestAllListsEveryExperiment(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All(true) {
		if e.Run == nil {
			t.Errorf("experiment %s has no runner", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig01", "fig09", "fig10", "fig11", "table1", "fig12",
		"fig13_fig14", "fig15", "fig16", "fig17a", "fig17b", "fig18", "fig19", "fig20", "fig21"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}
