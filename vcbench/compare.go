package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricRule is what BENCHMARK.json says about one metric.
type metricRule struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricRule `json:"end_to_end"`
	PerLayer []metricRule `json:"per_layer"`
}

func loadBenchmarkSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdicts of comparing one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
	verdictNone       = "no change"
	verdictUnranked   = "-" // no direction known
)

// comparison is the outcome for one (workload, metric): side A (the
// parent) against side B (the change), one value per run.
type comparison struct {
	Wins, Pairs int // pairs, in run order, that B won
	Verdict     string
}

// compareMetric applies the small-sandbox rule. A pair is won when B reads
// better than A, ties counting for neither. B counts as better when it
// wins at least nine tenths of the pairs and the medians differ by more
// than A's interquartile range. With a bound (> 0), B is worse when its
// median is worse than A's by more than bound times A's median, and a
// metric whose spread on either side exceeds the bound is unresolved
// unless every run of B beats every run of A.
func compareMetric(a, b []float64, rule *metricRule) comparison {
	c := comparison{Verdict: verdictUnranked}
	if rule == nil || len(a) == 0 || len(b) == 0 {
		return c
	}
	higher := rule.Better == "higher"
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		if better(b[i], a[i]) {
			c.Wins++
		}
	}
	ma, mb := median(a), median(b)
	worseBy := (mb - ma) / math.Abs(ma)
	if higher {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	gain := float64(c.Wins) >= 0.9*float64(c.Pairs) &&
		math.Abs(mb-ma) > math.Abs(quantile(a, 0.75)-quantile(a, 0.25))
	bounded := rule.Bound > 0
	switch {
	case ma == mb:
		c.Verdict = verdictNone
	case bounded && worseBy > rule.Bound:
		c.Verdict = verdictWorse
	case allBetter:
		c.Verdict = verdictBetter
	case bounded && math.Max(spread(a), spread(b)) > rule.Bound:
		c.Verdict = verdictUnresolved
	case gain:
		c.Verdict = verdictBetter
	default:
		c.Verdict = verdictNone
	}
	return c
}

// runCompare compares the runs in the -out files before "--" (side A)
// with those after it (side B), per workload and metric, and returns exit
// code 1 when a metric is worse beyond its bound or a workload fails more
// of its operations on side B.
func runCompare(benchmarkFile string, args []string, w io.Writer) (int, error) {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		return 2, fmt.Errorf("usage: vcbench -compare A.jsonl... -- B.jsonl...")
	}
	spec, err := loadBenchmarkSpec(benchmarkFile)
	if err != nil {
		return 2, err
	}
	rules := map[string]*metricRule{}
	for _, list := range [][]metricRule{spec.EndToEnd, spec.PerLayer} {
		for i := range list {
			rules[list[i].Name] = &list[i]
		}
	}
	sideA, err := readRecords(args[:split])
	if err != nil {
		return 2, err
	}
	sideB, err := readRecords(args[split+1:])
	if err != nil {
		return 2, err
	}

	code := 0
	fmt.Fprintf(w, "%-18s %-26s %30s %30s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "delta", "wins", "verdict")
	for _, g := range groupRecords(sideA, sideB) {
		if fa, fb := failFrac(g.a), failFrac(g.b); fb > fa {
			fmt.Fprintf(w, "%-18s fail_frac rose from %g to %g\n", g.name, fa, fb)
			code = 1
		}
		for _, name := range metricNames(g.a, g.b, rules) {
			a, b := values(g.a, name), values(g.b, name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			c := compareMetric(a, b, rules[name])
			if c.Verdict == verdictWorse {
				code = 1
			}
			delta := "-"
			if ma := median(a); ma != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(median(b)/ma-1))
			}
			fmt.Fprintf(w, "%-18s %-26s %30s %30s %8s %6s  %s\n", g.name, name,
				summarize(a), summarize(b), delta, fmt.Sprintf("%d/%d", c.Wins, c.Pairs), c.Verdict)
		}
	}
	return code, nil
}

// recordGroup is one workload's runs on each side, traced and untraced
// runs kept apart.
type recordGroup struct {
	name string
	a, b []record
}

func groupRecords(sideA, sideB []record) []recordGroup {
	key := func(r record) string {
		if r.Traced {
			return r.Workload + " (traced)"
		}
		return r.Workload
	}
	byKey := map[string]*recordGroup{}
	var order []string
	add := func(r record, toB bool) {
		k := key(r)
		g, ok := byKey[k]
		if !ok {
			g = &recordGroup{name: k}
			byKey[k] = g
			order = append(order, k)
		}
		if toB {
			g.b = append(g.b, r)
		} else {
			g.a = append(g.a, r)
		}
	}
	for _, r := range sideA {
		add(r, false)
	}
	for _, r := range sideB {
		add(r, true)
	}
	var gs []recordGroup
	for _, k := range order {
		if g := byKey[k]; len(g.a) > 0 && len(g.b) > 0 {
			gs = append(gs, *g)
		}
	}
	return gs
}

// metricNames lists the metrics both sides measured: those with rules in
// BENCHMARK.json order first, then the rest by name.
func metricNames(a, b []record, rules map[string]*metricRule) []string {
	has := func(rs []record, name string) bool {
		for _, r := range rs {
			if _, ok := r.Metrics[name]; ok {
				return true
			}
		}
		return false
	}
	var ruled, rest []string
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if rules[m.name] != nil && has(a, m.name) && has(b, m.name) {
			ruled = append(ruled, m.name)
		}
	}
	seen := map[string]bool{}
	for _, n := range ruled {
		seen[n] = true
	}
	for _, r := range a {
		for name := range r.Metrics {
			if !seen[name] && has(b, name) {
				seen[name] = true
				rest = append(rest, name)
			}
		}
	}
	sort.Strings(rest)
	return append(ruled, rest...)
}

func values(rs []record, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if s, ok := r.Metrics[name]; ok {
			xs = append(xs, s.Value)
		}
	}
	return xs
}

func failFrac(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func summarize(xs []float64) string {
	return fmt.Sprintf("%s [%s %s] %d", formatValue(median(xs)),
		formatValue(quantile(xs, 0.25)), formatValue(quantile(xs, 0.75)), len(xs))
}
