// Command compare diffs two bench snapshots (BENCH_<date>.json) and fails
// when a tracked benchmark regressed beyond a tolerance. CI runs it
// non-gating: a fresh -quick snapshot against the latest committed one,
// with a generous tolerance because shared runners are noisy — the point
// is a visible benchstat-style delta table per run plus a red mark on
// large regressions, not a merge gate.
//
// Usage:
//
//	go run ./bench/compare -current /tmp/BENCH_x.json             # vs latest committed
//	go run ./bench/compare -baseline a.json -current b.json
//	go run ./bench/compare -current b.json -tolerance 0.5 -filter 'FlatMap|Churn'
//
// Time-like metrics (ns/op, s/op) regress upward; rate/ratio metrics
// (speedup, events_per_sec, jobs_per_sec) regress downward. Benchmarks
// present on only one side are reported but never fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

type benchmark struct {
	Name    string             `json:"name"`
	Package string             `json:"package"`
	Metrics map[string]float64 `json:"metrics"`
}

type snapshot struct {
	Date       string      `json:"date"`
	Note       string      `json:"note"`
	Benchmarks []benchmark `json:"benchmarks"`
}

// defaultFilter tracks the translation hot-path benchmarks this repo's
// perf work bounds, plus the synthetic speedup entries derived from them.
const defaultFilter = `BenchmarkTranslateLines|BenchmarkChurn|BenchmarkFlatMap|` +
	`BenchmarkLookup|BenchmarkInfiniteLookup|BenchmarkInsertEvict|BenchmarkAccess|` +
	`FlatMapSpeedup`

func main() {
	baseline := flag.String("baseline", "", "baseline snapshot (default: latest bench/BENCH_*.json)")
	current := flag.String("current", "", "fresh snapshot to compare (required)")
	tolerance := flag.Float64("tolerance", 0.35, "allowed fractional regression before failing")
	filter := flag.String("filter", defaultFilter, "regexp of benchmark names to compare")
	flag.Parse()
	if *current == "" {
		fatal(fmt.Errorf("-current is required"))
	}
	if *baseline == "" {
		p, err := latestCommitted("bench")
		if err != nil {
			fatal(err)
		}
		*baseline = p
	}
	re, err := regexp.Compile(*filter)
	if err != nil {
		fatal(fmt.Errorf("bad -filter: %w", err))
	}

	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*current)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("baseline: %s (%s, %q)\n", *baseline, base.Date, base.Note)
	fmt.Printf("current:  %s (%s, %q)\n\n", *current, cur.Date, cur.Note)

	baseByName := map[string]benchmark{}
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}

	fmt.Printf("%-55s %14s %14s %9s\n", "name", "old", "new", "delta")
	regressions := 0
	seen := map[string]bool{}
	for _, nb := range cur.Benchmarks {
		if !re.MatchString(nb.Name) {
			continue
		}
		seen[nb.Name] = true
		ob, ok := baseByName[nb.Name]
		if !ok {
			fmt.Printf("%-55s %14s %14s %9s\n", nb.Name, "-", "(new)", "")
			continue
		}
		metric, higherBetter := primaryMetric(nb.Metrics)
		oldV, newV := ob.Metrics[metric], nb.Metrics[metric]
		if metric == "" || oldV <= 0 || newV <= 0 {
			continue
		}
		delta := newV/oldV - 1
		mark := ""
		worse := delta
		if higherBetter {
			worse = -delta
		}
		if worse > *tolerance {
			mark = "  REGRESSED"
			regressions++
		}
		fmt.Printf("%-55s %14s %14s %+8.1f%%%s\n",
			nb.Name+" ["+metric+"]", fmtVal(oldV, metric), fmtVal(newV, metric), delta*100, mark)
	}
	for _, ob := range base.Benchmarks {
		if re.MatchString(ob.Name) && !seen[ob.Name] {
			fmt.Printf("%-55s %14s %14s %9s\n", ob.Name, "(gone)", "-", "")
		}
	}

	if regressions > 0 {
		fmt.Printf("\n%d benchmark(s) regressed beyond %.0f%%\n", regressions, *tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("\nno regressions beyond %.0f%%\n", *tolerance*100)
}

// primaryMetric picks the metric to compare and whether larger is better.
func primaryMetric(m map[string]float64) (string, bool) {
	for _, k := range []string{"speedup", "events_per_sec", "jobs_per_sec"} {
		if m[k] > 0 {
			return k, true
		}
	}
	for _, k := range []string{"ns/op", "s/op"} {
		if m[k] > 0 {
			return k, false
		}
	}
	return "", false
}

func fmtVal(v float64, metric string) string {
	switch metric {
	case "ns/op":
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%.2fs", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%.2fms", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fus", v/1e3)
		default:
			return fmt.Sprintf("%.1fns", v)
		}
	case "events_per_sec":
		return fmt.Sprintf("%.1fM/s", v/1e6)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// latestCommitted returns the lexicographically newest BENCH_*.json in dir
// (dates are ISO, so lexicographic order is chronological).
func latestCommitted(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		return "", fmt.Errorf("no committed BENCH_*.json under %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

func load(path string) (snapshot, error) {
	var s snapshot
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}
