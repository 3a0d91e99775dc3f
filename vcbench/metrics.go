package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric of the benchmark's contract: the root
// BENCHMARK.json lists exactly these, and a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the metrics a user of the simulator or the daemon sees,
// measured with tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"lines_per_s", "lines/s", true},
	{"op_p50_ms", "ms", false},
	{"allocs_per_line", "allocs", false},
	{"heap_bytes_per_line", "B", false},
	{"peak_rss_mb", "MiB", false},
}

// sharePackages are the repository packages whose host-time share the
// traced run reports: every package under internal/ that a workload's hot
// path reaches, plus api/v1 as "api".
var sharePackages = []string{
	"sim", "gpu", "core", "tlb", "cache", "iommu", "ptw", "noc", "fbt",
	"dram", "memory", "flatmap", "trace", "workloads", "artifact", "server",
	"obs", "experiments", "stats", "fingerprint", "api",
}

// layers are the buckets a CPU profile folds into: the listed packages,
// the allocator and garbage collector, the HTTP and JSON stack, and the
// rest.
var layers = append(append([]string(nil), sharePackages...), "runtime.gc", "net.http", "other")

// shareName is the metric that reports a layer's share of host time.
func shareName(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_share"
	}
	return layer + ".cpu_share"
}

// perLayer are the metrics of single layers, reported by the traced run.
// Every workload reports every one of them; a layer a workload does not
// exercise reads 0 (no churn retirements outside tenant-churn, no IOMMU
// queueing under the ideal MMU, no server frames in a library run).
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, l := range layers {
		ms = append(ms, metricDef{shareName(l), "share", false})
	}
	return append(ms,
		metricDef{"pprof.samples", "count", true},
		metricDef{"tracing.overhead", "ratio", false},
		metricDef{"workloads.build_s", "s", false},
		metricDef{"core.new_s", "s", false},
		metricDef{"core.run_s", "s", false},
		metricDef{"runtime.gc_cycles", "count", false},
		metricDef{"runtime.gc_pause_ms", "ms", false},
		metricDef{"gpu.cycles", "cycles", false},
		metricDef{"gpu.lines", "count", false},
		metricDef{"iommu.queue_delay_cy", "cycles", false},
		metricDef{"churn.retired_entries", "count", false},
		metricDef{"churn.resident_at_retire", "count", false},
		metricDef{"churn.shootdowns", "count", false},
	)
}()

// stat is one reported metric: the value (a median where the metric has
// several samples), its unit, and the quartiles and sample count behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// record is everything one run of one workload measured. The -out file
// holds one record per line; -compare reads them back.
type record struct {
	Workload   string          `json:"workload"`
	Seed       uint64          `json:"seed"`
	Seconds    int             `json:"seconds"`
	Traced     bool            `json:"traced"`
	SimVersion int             `json:"sim_version"`
	Go         string          `json:"go"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Metrics    map[string]stat `json:"metrics"`
}

// set records a single-valued metric.
func (r *record) set(name, unit string, v float64) {
	r.Metrics[name] = stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// dist records a metric from its samples: their median and quartiles.
func (r *record) dist(name, unit string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.Metrics[name] = stat{Value: median(xs), Unit: unit,
		Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// print writes one "workload metric value unit" line per metric, the
// contract's metrics first in catalogue order, then the rest by name.
func (r *record) print(w io.Writer) {
	seen := map[string]bool{}
	var names []string
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := r.Metrics[m.name]; ok {
			names = append(names, m.name)
			seen[m.name] = true
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range append(names, rest...) {
		s := r.Metrics[name]
		line := fmt.Sprintf("%s %s %s %s", r.Workload, name, formatValue(s.Value), s.Unit)
		if s.N > 1 {
			line += fmt.Sprintf("  (q1 %s, q3 %s, n %d)", formatValue(s.Q1), formatValue(s.Q3), s.N)
		}
		fmt.Fprintln(w, line)
	}
}

// formatValue prints a value to six significant digits; the JSON outputs
// keep every digit.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// resultLine is the final line of a run's standard output: the contract's
// metrics for the run's mode, each with all its digits.
func (r *record) resultLine(defs []metricDef) ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, m := range defs {
		s, ok := r.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, s.Value)
		}
		out.Metrics[m.name] = valueUnit{s.Value, m.unit}
	}
	return json.Marshal(out)
}
