// Package vcache is a simulation study of "Filtering Translation Bandwidth
// with Virtual Caching" (Yoon, Lowe-Power & Sohi, ASPLOS 2018): a GPU
// virtual cache hierarchy that uses the existing L1/L2 caches as a
// bandwidth filter for shared address-translation hardware.
//
// The package bundles a trace-driven, event-driven GPU memory-system
// simulator (compute units, coalescer, TLBs, caches, IOMMU with a
// multi-threaded page-table walker, DRAM), the paper's forward-backward
// table (FBT) that makes whole-hierarchy virtual caching practical, the
// fifteen Rodinia/Pannotia-style workload generators the paper evaluates,
// and an experiment suite that regenerates every table and figure.
//
// Quick start:
//
//	tr := vcache.BuildWorkload("pagerank", vcache.DefaultParams())
//	base := vcache.Run(vcache.DesignBaseline512(), tr)
//	vc := vcache.Run(vcache.DesignVCOpt(), tr)
//	fmt.Printf("speedup %.2fx\n", vc.SpeedupOver(base))
//
// # Migration: Run to RunContext
//
// Run(cfg, tr) remains supported as a thin compatibility wrapper: it
// panics on an invalid Config and cannot be cancelled or observed. New
// code should prefer RunContext, which accepts a context for
// cancellation, reports invalid configurations as a *ConfigError instead
// of panicking, and takes functional options that attach observers
// without perturbing the simulation:
//
//	res, err := vcache.RunContext(ctx, cfg, tr,
//	    vcache.WithMetricsSink(metricsFile),   // interval registry snapshots, JSONL
//	    vcache.WithEventTrace(traceProcess),   // cycle-stamped component events
//	    vcache.WithProgress(func(p vcache.Progress) { log.Println(p.Cycle) }))
//
// A run with no options is cycle-for-cycle identical to Run. Per-component
// metrics (hierarchical names like "l1.cu3.read_hits", "iommu.tlb.misses",
// "ptw.walks.inflight") are available on any System via Metrics(); event
// traces written through NewTraceWriter load directly into the
// chrome://tracing / Perfetto viewers.
//
// The exported names are aliases of the implementation packages under
// internal/, so the full method sets are available through this package.
package vcache

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	apiv1 "vcache/api/v1"
	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/experiments"
	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/server"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// Core system types.
type (
	// Config describes a full simulated SoC (GPU, caches, TLBs, IOMMU,
	// FBT, DRAM, latencies) and the MMU design to use.
	Config = core.Config
	// System is an assembled SoC that runs trace after trace; Reset
	// returns it to its freshly built state for the next independent run.
	System = core.System
	// Results captures a run's measurements.
	Results = core.Results
	// MMUKind selects the translation/caching organization.
	MMUKind = core.MMUKind
	// FaultCounts records page faults, permission faults and read-write
	// synonym faults observed during a run.
	FaultCounts = core.FaultCounts
	// ProbeBreakdown classifies per-CU TLB misses by where the data
	// resided (Figure 2).
	ProbeBreakdown = core.ProbeBreakdown
	// Lifetimes holds TLB-entry and cache-line residence CDFs (Figure 12).
	Lifetimes = core.Lifetimes
	// Latencies are the SoC's fixed latencies in GPU cycles.
	Latencies = core.Latencies
	// ConfigError reports an invalid Config (returned by RunContext;
	// panicked by Run/NewSystem).
	ConfigError = core.ConfigError
	// Option customizes a RunContext invocation (see the With* options).
	Option = core.Option
	// Progress reports run advancement to a WithProgress callback.
	Progress = core.Progress
	// MetricsRegistry is a System's per-component metrics registry.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time reading of a MetricsRegistry.
	MetricsSnapshot = obs.Snapshot
	// TraceEvent is one cycle-stamped component event.
	TraceEvent = obs.Event
	// EventSink consumes trace events (see WithEventTrace).
	EventSink = obs.EventSink
	// TraceWriter streams trace events in Chrome trace format.
	TraceWriter = obs.TraceWriter
	// ASID identifies an address space (process) on the GPU.
	ASID = memory.ASID
	// VAddr is a virtual byte address.
	VAddr = memory.VAddr
	// Perm is a page-permission bit set.
	Perm = memory.Perm
)

// Permission bits for Space().MapSynonym / SetDefaultPerm.
const (
	PermRead  = memory.PermRead
	PermWrite = memory.PermWrite
)

// MMU designs.
const (
	// IdealMMU has infinite translation capacity and bandwidth at zero
	// latency.
	IdealMMU = core.IdealMMU
	// PhysicalBaseline is the conventional per-CU-TLB + physical-cache
	// design.
	PhysicalBaseline = core.PhysicalBaseline
	// VirtualHierarchy is the paper's proposal: virtual L1 + L2 caches
	// with an FBT in the IOMMU.
	VirtualHierarchy = core.VirtualHierarchy
	// L1OnlyVirtual virtualizes only the L1 caches (CPU-style design).
	L1OnlyVirtual = core.L1OnlyVirtual
)

// Workload types.
type (
	// Params controls workload trace generation (scale, CU count, seed).
	Params = workloads.Params
	// Generator names one of the paper's fifteen workloads.
	Generator = workloads.Generator
	// Trace is a generated SIMT memory trace.
	Trace = trace.Trace
	// TraceBuilder assembles custom traces for use with Run.
	TraceBuilder = trace.Builder
	// ExperimentSuite regenerates the paper's tables and figures.
	ExperimentSuite = experiments.Suite
	// RunEvent describes one completed suite simulation.
	RunEvent = experiments.RunEvent
	// ProgressFunc receives one RunEvent per completed suite simulation.
	ProgressFunc = experiments.ProgressFunc
	// ArtifactCache is the content-addressed on-disk cache for simulation
	// results and for the chunked trace streams that streaming suites
	// replay; assign one to ExperimentSuite.Cache to make suite runs
	// incremental across processes.
	ArtifactCache = artifact.Cache
)

// ProgressWriter adapts an io.Writer to a ProgressFunc for
// ExperimentSuite.Progress, reproducing the historical line format.
var ProgressWriter = experiments.ProgressWriter

// Design presets (Table 2 plus the comparison points of Figures 10/11).
var (
	DesignIdeal              = core.DesignIdeal
	DesignBaseline512        = core.DesignBaseline512
	DesignBaseline16K        = core.DesignBaseline16K
	DesignBaselineLargePerCU = core.DesignBaselineLargePerCU
	DesignVC                 = core.DesignVC
	DesignVCOpt              = core.DesignVCOpt
	DesignVCOptDSR           = core.DesignVCOptDSR
	DesignL1OnlyVC           = core.DesignL1OnlyVC
)

// DefaultParams returns the default workload parameters: 16 CUs, 8 warp
// contexts per CU, unit scale, fixed seed.
func DefaultParams() Params { return workloads.DefaultParams() }

// Workloads returns the full workload catalog in the paper's order.
func Workloads() []Generator { return workloads.All() }

// HighBandwidthWorkloads returns the paper's high-translation-bandwidth
// subset (used by Figures 5, 9 and 10).
func HighBandwidthWorkloads() []Generator { return workloads.HighBandwidth() }

// BuildWorkload generates the named workload's trace, panicking on unknown
// names (use Workloads to enumerate valid ones).
func BuildWorkload(name string, p Params) *Trace {
	g, ok := workloads.ByName(name)
	if !ok {
		panic(fmt.Sprintf("vcache: unknown workload %q", name))
	}
	return g.Build(p)
}

// NewTraceBuilder creates a builder for hand-written traces: numCUs
// compute units with warpsPerCU concurrent warp contexts each, in the
// default address space (ASID 1).
func NewTraceBuilder(name string, numCUs, warpsPerCU int) *TraceBuilder {
	return trace.NewBuilder(name, 1, numCUs, warpsPerCU)
}

// NewTraceBuilderASID is NewTraceBuilder for an explicit address space,
// for multi-process scenarios: running traces with different ASIDs on one
// System context-switches between their address spaces.
func NewTraceBuilderASID(name string, asid ASID, numCUs, warpsPerCU int) *TraceBuilder {
	return trace.NewBuilder(name, asid, numCUs, warpsPerCU)
}

// LoadTrace reads a trace saved by Trace.Save (or cmd/tracegen -o).
func LoadTrace(path string) (*Trace, error) { return trace.LoadFile(path) }

// RunContext options. Each attaches an observer to the run; none perturbs
// the simulated timing.
var (
	// WithMetricsSink streams interval metrics snapshots to a writer as
	// JSONL.
	WithMetricsSink = core.WithMetricsSink
	// WithMetricsInterval sets the snapshot period in cycles (default
	// 100k).
	WithMetricsInterval = core.WithMetricsInterval
	// WithMetricsSnapshot delivers each snapshot to a callback.
	WithMetricsSnapshot = core.WithMetricsSnapshot
	// WithEventTrace attaches an EventSink to the component emitters.
	WithEventTrace = core.WithEventTrace
	// WithProgress reports liveness during long runs.
	WithProgress = core.WithProgress
)

// NewSystem assembles a system; use it instead of Run when you need to
// prepare state first (synonym mappings, permissions) or to drive
// shootdowns and coherence probes. It panics on an invalid Config; call
// Config.Validate first to check, or use RunContext for the
// error-returning path.
func NewSystem(cfg Config) *System { return core.MustNew(cfg) }

// Run simulates tr to completion under cfg and returns the measurements.
// It is the compatibility wrapper around RunContext (see the package
// comment's migration notes): invalid configurations panic and the run
// cannot be cancelled or observed.
func Run(cfg Config, tr *Trace) Results { return core.MustRun(cfg, tr) }

// RunContext simulates tr to completion under cfg, honouring ctx and the
// given observability options. Invalid configurations return a
// *ConfigError; a cancelled context stops the run mid-simulation and
// returns ctx.Err().
func RunContext(ctx context.Context, cfg Config, tr *Trace, opts ...Option) (Results, error) {
	return core.RunContext(ctx, cfg, tr, opts...)
}

// NewTraceWriter starts a Chrome-trace-format event stream on w. Give
// each simulated run its own Process (whose Emit satisfies EventSink) and
// pass that to WithEventTrace; the resulting file loads directly into
// chrome://tracing or the Perfetto UI.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// NewExperimentSuite builds a suite that regenerates the paper's tables
// and figures over the named workloads (nil = all fifteen).
func NewExperimentSuite(p Params, subset []string) (*ExperimentSuite, error) {
	return experiments.New(p, subset)
}

// OpenArtifactCache opens (creating if needed) the on-disk artifact cache
// rooted at dir ("" = DefaultArtifactCacheDir). A nil *ArtifactCache is
// valid everywhere one is accepted and disables caching.
func OpenArtifactCache(dir string) (*ArtifactCache, error) { return artifact.Open(dir) }

// DefaultArtifactCacheDir returns the cache directory used when none is
// given: $VCACHE_DIR if set, else out/cache.
func DefaultArtifactCacheDir() string { return artifact.DefaultDir() }

// ExperimentIDs lists the regenerable tables and figures in paper order.
func ExperimentIDs() []string { return experiments.Figures() }

// Serving layer (cmd/vcsimd's engine and the api/v1 wire schema). A
// JobServer runs simulations as a service: a bounded priority-scheduled
// worker pool in which identical in-flight submissions coalesce onto one
// run, results are served from a shared ArtifactCache in a canonical
// byte-stable JSON encoding, and progress streams over SSE.
type (
	// JobSpec is one api/v1 job submission (workload + design + priority).
	JobSpec = apiv1.JobSpec
	// WorkloadSpec names a catalog workload and its generation parameters.
	WorkloadSpec = apiv1.WorkloadSpec
	// DesignSpec selects an MMU design by preset name or inline Config.
	DesignSpec = apiv1.DesignSpec
	// JobInfo is a job's status document.
	JobInfo = apiv1.JobInfo
	// JobState is a job's lifecycle phase (queued/running/done/failed/
	// canceled).
	JobState = apiv1.JobState
	// JobEvent is one record on a job's SSE event stream.
	JobEvent = apiv1.Event
	// JobQueueInfo is the queue introspection document.
	JobQueueInfo = apiv1.QueueInfo
	// ServiceHealth is the daemon health document.
	ServiceHealth = apiv1.Health
	// JobClient talks to a vcsimd instance over HTTP.
	JobClient = apiv1.Client
	// JobServer is the simulation service's job engine.
	JobServer = server.Server
	// JobServerOptions configures a JobServer.
	JobServerOptions = server.Options
)

// JobAPIVersion is the wire-schema version the serving layer speaks.
const JobAPIVersion = apiv1.Version

// DecodeJobSpec strictly parses and validates one api/v1 job spec;
// unknown fields, version mismatches and invalid configurations are all
// errors (never panics), making it safe for network input.
var DecodeJobSpec = apiv1.DecodeJobSpec

// NewJobServer builds and starts a simulation job engine; serve its
// Handler over HTTP (or use Serve), and stop it with Close.
func NewJobServer(opts JobServerOptions) *JobServer { return server.New(opts) }

// NewJobClient returns a client for the vcsimd daemon at baseURL.
func NewJobClient(baseURL string) *JobClient { return apiv1.NewClient(baseURL) }

// Serve runs a simulation daemon on addr until ctx is canceled, then
// drains gracefully: in-flight runs observe cancellation and queued jobs
// are retired as canceled. It is the library form of cmd/vcsimd.
func Serve(ctx context.Context, addr string, opts JobServerOptions) error {
	engine := server.New(opts)
	httpSrv := &http.Server{Addr: addr, Handler: engine.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(sctx)
		return engine.Close(sctx)
	}
	select {
	case err := <-errc:
		_ = shutdown()
		return err
	case <-ctx.Done():
		return shutdown()
	}
}
