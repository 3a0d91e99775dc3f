package experiments

import (
	"reflect"
	"strings"
	"testing"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// A tiny suite keeps the tests fast: two workloads, a small GPU.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 3}
	s, err := New(p, []string{"pagerank", "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsUnknownWorkload(t *testing.T) {
	if _, err := New(workloads.DefaultParams(), []string{"bogus"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTables(t *testing.T) {
	for _, s := range []string{Table1(), Table2(), Area()} {
		if !strings.Contains(s, "Table") && !strings.Contains(s, "Area") {
			t.Fatalf("malformed table: %q", s[:40])
		}
	}
	if !strings.Contains(Table2(), "VC With OPT") {
		t.Fatal("Table 2 missing designs")
	}
}

func TestRunMemoization(t *testing.T) {
	s := testSuite(t)
	before := len(s.results)
	s.Fig4()
	mid := len(s.results)
	if mid <= before {
		t.Fatal("Fig4 ran nothing")
	}
	s.Fig4() // memoized: no new runs
	if len(s.results) != mid {
		t.Fatal("memoization failed")
	}
	// Fig9 reuses Fig4's ideal/baseline runs.
	s.Fig9()
	after := len(s.results)
	if after-mid > 2*2 { // at most VC + VCOpt per workload
		t.Fatalf("Fig9 re-ran shared configs: %d new results", after-mid)
	}
}

// TestRunKeysOnConfig: Run memoizes on the whole config, so a run of the
// Baseline 512 preset does not stand in for the suite's residency-probed
// variant, which keeps the preset's name. And no two runs any figure
// plans share a (workload, design name) pair, so the name-keyed Results
// and Metrics views, and with them -csv and -metrics, hold every one.
func TestRunKeysOnConfig(t *testing.T) {
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 7}
	suite := func() *Suite {
		s, err := New(p, []string{"bfs"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want, _ := suite().Fig2()
	s := suite()
	s.Run("bfs", core.DesignBaseline512())
	if got, _ := s.Fig2(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig2 after a run of the unprobed preset:\n got %+v\nwant %+v", got, want)
	}

	names := make(map[string]RunRequest)
	for _, r := range s.Plan(append(Figures(), Extras()...)...) {
		k := runKey(r.Workload, r.Config.Name)
		if prev, ok := names[k]; ok {
			t.Errorf("planned runs %+v and %+v share a design name", prev, r)
		}
		names[k] = r
	}
}

func TestFig2RowsSumToMissRatio(t *testing.T) {
	s := testSuite(t)
	rows, out := s.Fig2()
	if out == "" || len(rows) != 2*len(perCUTLBSizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.L1Share + r.L2Share + r.MemShare
		if diff := sum - r.MissRatio; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s/%d: segments %.4f != miss ratio %.4f", r.Workload, r.TLBSize, sum, r.MissRatio)
		}
	}
}

func TestFig9ShapesHold(t *testing.T) {
	s := testSuite(t)
	rows, _ := s.Fig9()
	avg := rows[len(rows)-1]
	if avg.Workload != "Average(ALL)" {
		t.Fatalf("last row = %s", avg.Workload)
	}
	// The paper's ordering: baseline < VC With OPT <= ~1.
	if avg.Base512 >= avg.VCOpt {
		t.Fatalf("baseline (%.2f) not worse than VC (%.2f)", avg.Base512, avg.VCOpt)
	}
	if avg.VCOpt > 1.05 {
		t.Fatalf("VC better than ideal: %.2f", avg.VCOpt)
	}
}

func TestFig8TotalsFavorVCOnHighBandwidth(t *testing.T) {
	s := testSuite(t)
	rows, _ := s.Fig8()
	for _, r := range rows {
		if r.Workload == "pagerank" && r.TotalReduction() <= 0 {
			t.Fatalf("VC did not reduce pagerank's total requests: %+v", r)
		}
	}
}

func TestRenderAllIDs(t *testing.T) {
	s := testSuite(t)
	for _, id := range append(Figures(), Extras()...) {
		// Only exercise the cheap ones here; the expensive sweeps are
		// covered by the figure-specific tests and benchmarks.
		switch id {
		case "table1", "table2", "area", "dsr":
			out, err := s.Render(id)
			if err != nil || out == "" {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}
	if _, err := s.Render("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestDSRAblation(t *testing.T) {
	s := testSuite(t)
	d, out := s.DSR()
	if out == "" {
		t.Fatal("empty DSR report")
	}
	if d.ReplaysWith >= d.ReplaysWithout {
		t.Fatalf("DSR did not reduce replays: %+v", d)
	}
	if d.SpeedupWithDSR <= 1 {
		t.Fatalf("DSR speedup = %.2f", d.SpeedupWithDSR)
	}
}

func TestFig12CDFMonotonic(t *testing.T) {
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 3}
	s, err := New(p, []string{"kmeans"}) // bfs absent: falls back to first
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := s.Fig12()
	for i := 1; i < len(rows); i++ {
		if rows[i].TLBEntry < rows[i-1].TLBEntry ||
			rows[i].L1Data < rows[i-1].L1Data ||
			rows[i].L2Data < rows[i-1].L2Data {
			t.Fatalf("CDF not monotonic at %v", rows[i].LifetimeNs)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	s := testSuite(t)
	s.Fig4()
	var buf strings.Builder
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != s.RunCount()+1 {
		t.Fatalf("csv rows = %d, runs = %d", len(lines)-1, s.RunCount())
	}
	if !strings.HasPrefix(lines[0], "workload,design,cycles") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != strings.Count(lines[0], ",") {
			t.Fatalf("column count mismatch: %q", l)
		}
	}
}
