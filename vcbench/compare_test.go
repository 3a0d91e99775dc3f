package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareMetricRule(t *testing.T) {
	lower := &metricRule{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := &metricRule{Name: "lines_per_s", Better: "higher", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	nineOfTen := shift(parent, -5)
	nineOfTen[3] = parent[3] + 1 // one pair lost
	eightOfTen := append([]float64(nil), nineOfTen...)
	eightOfTen[5] = parent[5] // one more pair tied

	cases := []struct {
		name     string
		a, b     []float64
		rule     *metricRule
		verdict  string
		wins     int
		unranked bool
	}{
		{"wins 9 of 10 beyond the spread", parent, nineOfTen, lower, verdictBetter, 9, false},
		{"wins 8 of 10", parent, eightOfTen, lower, verdictNone, 8, false},
		{"higher is better", nineOfTen, parent, higher, verdictBetter, 9, false},
		{"worse beyond the bound", parent, shift(parent, 15), lower, verdictWorse, 0, false},
		{"worse within the bound", parent, shift(parent, 3), lower, verdictNone, 0, false},
		{"spread wider than the bound", []float64{60, 100, 140, 80, 120}, []float64{65, 95, 150, 85, 110}, lower, verdictUnresolved, 2, false},
		{"every run better despite the spread", []float64{60, 100, 140, 80, 120}, []float64{50, 55, 45, 52, 58}, lower, verdictBetter, 5, false},
		{"no rule", parent, nineOfTen, nil, verdictUnranked, 0, true},
	}
	for _, c := range cases {
		got := compareMetric(c.a, c.b, c.rule)
		if got.Verdict != c.verdict || (!c.unranked && got.Wins != c.wins) {
			t.Errorf("%s: verdict %q with %d/%d wins, want %q with %d wins",
				c.name, got.Verdict, got.Wins, got.Pairs, c.verdict, c.wins)
		}
	}
}

// TestRunCompareExitCodes runs -compare over -out files: no change exits
// 0, a metric worse beyond its bound or a higher fail_frac exits 1.
func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, spec, map[string]any{
		"end_to_end": []map[string]any{{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}},
	})
	set := func(name string, op float64, failed int) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			r := record{Workload: "filter-vc", Attempted: 10, Failed: failed, Metrics: map[string]stat{}}
			r.set("op_p50_ms", "ms", op+float64(i%3))
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slower, failing := set("a", 100, 0), set("b", 101, 0), set("c", 130, 0), set("d", 100, 1)
	for _, c := range []struct {
		name string
		b    string
		code int
		want string
	}{
		{"unchanged", same, 0, "no change"},
		{"slower", slower, 1, verdictWorse},
		{"more failures", failing, 1, "fail_frac rose"},
	} {
		var out bytes.Buffer
		code, err := runCompare(spec, []string{base, "--", c.b}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d, with %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
	if _, err := runCompare(spec, []string{base}, &bytes.Buffer{}); err == nil {
		t.Error("-compare without -- was accepted")
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
