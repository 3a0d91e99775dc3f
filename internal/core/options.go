package core

import (
	"io"

	"vcache/internal/obs"
)

// defaultMetricsInterval is the snapshot period, in cycles, when a metrics
// sink is attached without an explicit WithMetricsInterval.
const defaultMetricsInterval = 100_000

// Progress reports run advancement to a WithProgress callback.
type Progress struct {
	Cycle  uint64 // current simulation cycle
	Events uint64 // total engine events fired so far
}

// options collects the optional hooks a RunContext invocation may attach.
type options struct {
	metricsSink     io.Writer
	metricsInterval uint64
	snapshot        func(obs.Snapshot)
	events          obs.EventSink
	progress        func(Progress)

	sinkErr error // first metrics-sink write failure
}

// wantsMetrics reports whether any snapshot consumer is attached.
func (o *options) wantsMetrics() bool {
	return o.metricsSink != nil || o.snapshot != nil
}

// Option customizes a RunContext invocation. Options only add observers;
// the simulation itself is unaffected, so a run with any options is
// cycle-for-cycle identical to System.Run.
type Option func(*options)

// WithMetricsSink streams interval snapshots of the system's metrics
// registry to w as JSONL ({"cycle":N,"metrics":{...}}), one record per
// interval plus a final record when the run completes.
func WithMetricsSink(w io.Writer) Option {
	return func(o *options) { o.metricsSink = w }
}

// WithMetricsInterval sets the snapshot period in cycles. Zero (the
// default) means 100k cycles.
func WithMetricsInterval(cycles uint64) Option {
	return func(o *options) { o.metricsInterval = cycles }
}

// WithMetricsSnapshot invokes fn on every interval snapshot (and the final
// one), for programmatic consumers that want structured data instead of a
// JSONL stream.
func WithMetricsSnapshot(fn func(obs.Snapshot)) Option {
	return func(o *options) { o.snapshot = fn }
}

// WithEventTrace attaches sink to the system's component event emitters:
// per-CU and shared TLB misses, IOMMU enqueue/dequeue, page-walk
// start/finish, and FBT coherence probes arrive as cycle-stamped
// obs.Events. Without this option the emitters stay nil and every emit
// site costs one branch.
func WithEventTrace(sink obs.EventSink) Option {
	return func(o *options) { o.events = sink }
}

// WithProgress invokes fn at the first window barrier after every ~65k
// events, with the current cycle and cumulative event count. Useful for liveness
// reporting on long runs; the callback must not mutate the system.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) { o.progress = fn }
}

// WithIntraParallelism does nothing: every run executes its one windowed
// schedule on the calling goroutine. It remains so that existing callers
// still compile.
//
// Deprecated: drop the option; it has no effect.
func WithIntraParallelism(int) Option {
	return func(*options) {}
}
