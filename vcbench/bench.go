package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vcache/internal/core"
)

// setupRepeats is how many times, at least, a run sets its workload up
// back to back; setup_s is the median.
const setupRepeats = 3

// options are one run's settings, from the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	smoke    bool   // tiny inputs and one sample, for tests
	spans    string // where a traced run writes its spans
}

// bench is one run of one workload in progress.
type bench struct {
	options
	ctx    context.Context
	rec    record
	spans  *spanLog   // nil unless traced
	golden string     // expected result digest, "" when unchecked
	first  string     // the run's first result digest
	tmp    string     // the run's scratch directory, once made
	probe  *hostProbe // started by the first calibrate
	refs   []float64  // hostRef times taken during the run
}

// calibrate times the host reference kernel once (only once in a smoke
// run).
func (b *bench) calibrate() error {
	if b.smoke && len(b.refs) > 0 {
		return nil
	}
	if b.probe == nil {
		p, err := startProbe()
		if err != nil {
			return err
		}
		b.probe = p
	}
	t, err := b.probe.time()
	if err != nil {
		return err
	}
	b.refs = append(b.refs, t)
	return nil
}

// normalize rescales the end-to-end timings of a run that timed the host
// reference kernel to the reference host speed (see hostRef), keeping the
// measured values as raw.<name>.
func (b *bench) normalize() {
	if len(b.refs) == 0 {
		return
	}
	ref := median(b.refs)
	b.rec.set("host.ref_ms", "ms", ref*1e3)
	for _, name := range []string{"setup_s", "op_p50_ms", "lines_per_s"} {
		s, ok := b.rec.Metrics[name]
		if !ok {
			continue
		}
		b.rec.Metrics["raw."+name] = s
		k := refNominal / ref
		if name == "lines_per_s" {
			k = 1 / k
		}
		s.Value, s.Q1, s.Q3 = s.Value*k, s.Q1*k, s.Q3*k
		b.rec.Metrics[name] = s
	}
}

// tempDir returns the run's scratch directory, removed by cleanup.
func (b *bench) tempDir() (string, error) {
	if b.tmp == "" {
		dir, err := os.MkdirTemp("", "vcbench-")
		if err != nil {
			return "", err
		}
		b.tmp = dir
	}
	return b.tmp, nil
}

func (b *bench) cleanup() {
	if b.probe != nil {
		b.probe.close()
	}
	if b.tmp != "" {
		os.RemoveAll(b.tmp)
	}
}

func newBench(o options) *bench {
	b := &bench{options: o, ctx: context.Background(), rec: record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		SimVersion: core.SimVersion, Go: runtime.Version(),
		Metrics: map[string]stat{},
	}}
	if o.traced {
		b.spans = newSpanLog()
	}
	return b
}

// window is the measured time of the run (its reference phase, when
// traced, is a third of it on top).
func (b *bench) window() time.Duration { return time.Duration(b.seconds) * time.Second }

// failf counts one failed operation and says why on standard error.
func (b *bench) failf(format string, args ...any) {
	b.rec.Failed++
	fmt.Fprintf(os.Stderr, "vcbench: %s: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// checkDigest fails the operation whose result digest differs from the
// run's first digest or from the golden one.
func (b *bench) checkDigest(op, digest string) {
	if b.first == "" {
		b.first = digest
	}
	switch {
	case digest != b.first:
		b.failf("%s: result digest %s differs from the run's first %s", op, digest, b.first)
	case b.golden != "" && digest != b.golden:
		b.failf("%s: result digest %s differs from golden %s", op, digest, b.golden)
	}
}

// finish records what every workload reports about the process as a
// whole.
func (b *bench) finish() {
	b.normalize()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.rec.set("peak_rss_mb", "MiB", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	if b.rec.Attempted > 0 {
		b.rec.set("fail_frac", "ratio", float64(b.rec.Failed)/float64(b.rec.Attempted))
	}
}

// calls times the boundary calls one operation makes into the program's
// layers: each call's duration is kept by metric name ("core.new_s"), and
// recorded as a span under the operation when tracing.
type calls struct {
	spans  *spanLog
	parent int
	op     string
	lane   int
	d      map[string][]float64
}

// time runs fn as the boundary call name and returns its host seconds.
func (c *calls) time(name string, fn func() error) (float64, error) {
	id := c.spans.begin(strings.TrimSuffix(name, "_s"), c.op, c.parent, c.lane)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	c.spans.end(id)
	c.d[name] = append(c.d[name], d)
	return d, err
}

// op runs fn as one operation of the run under a span called name, and
// returns the boundary calls it made and its host seconds.
func (b *bench) op(name, op string, lane int, fn func(*calls) error) (*calls, float64, error) {
	id := b.spans.begin(name, op, 0, lane)
	c := &calls{spans: b.spans, parent: id, op: op, lane: lane, d: map[string][]float64{}}
	t0 := time.Now()
	err := fn(c)
	d := time.Since(t0).Seconds()
	b.spans.end(id)
	return c, d, err
}

// recordCalls reports each boundary call's median host seconds.
func (b *bench) recordCalls(cs []*calls) {
	all := map[string][]float64{}
	for _, c := range cs {
		for name, ds := range c.d {
			all[name] = append(all[name], ds...)
		}
	}
	for name, ds := range all {
		b.rec.dist(name, "s", ds)
	}
}

// recordCounters reports simulated counters.
func (b *bench) recordCounters(counters map[string]float64) {
	for name, v := range counters {
		unit := "count"
		switch {
		case name == "gpu.cycles" || strings.HasSuffix(name, "_cy"):
			unit = "cycles"
		case strings.HasSuffix(name, "_ratio") || strings.Contains(name, "_per_"):
			unit = "ratio"
		}
		b.rec.set(name, unit, v)
	}
}

// memDelta is the allocation and garbage-collection activity between two
// runtime.MemStats readings.
type memDelta struct {
	mallocs, bytes, gcs, pauseMS float64
}

func deltaMem(before, after *runtime.MemStats) memDelta {
	return memDelta{
		mallocs: float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		gcs:     float64(after.NumGC - before.NumGC),
		pauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
