// Package experiments regenerates every table and figure in the paper's
// evaluation. A Suite memoizes workload traces and simulation runs so
// figures that share configurations (e.g. the Baseline 512 runs used by
// Figures 2, 3, 4, 8 and 9) simulate each combination once.
//
// Every simulation is a self-contained, single-threaded, deterministic
// event loop over an immutable trace, so independent (workload, design)
// pairs are embarrassingly parallel. The suite exploits that: each figure
// declares the runs it needs (see plan.go), and Precompute executes the
// union of the requested figures' plans on a worker pool — traces first,
// then simulations — while the render methods read the memoized results.
// Results are bit-identical to serial execution; only scheduling changes.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/obs"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// RunEvent describes one unit of suite progress, delivered to the
// Progress callback. Stage "" (the default) is a completed simulation;
// stage "trace.gen" reports chunked trace generation, one event per chunk
// cut, so long generations are visible while they stream.
type RunEvent struct {
	Workload string
	Design   string        // empty for trace-generation events
	Cycles   uint64        // simulated GPU cycles (simulation events)
	Wall     time.Duration // wall-clock time the simulation took
	// Cached marks a result loaded from the artifact cache instead of
	// simulated (or, for trace.gen, a stream reused from disk); Wall is
	// then the load time.
	Cached bool
	// Stage distinguishes event kinds: "" for simulations, "trace.gen"
	// for chunked trace generation.
	Stage string
	// Chunk and Bytes describe trace.gen progress: the chunk index just
	// cut and the stream bytes written so far.
	Chunk int
	Bytes int64
}

// ProgressFunc receives one RunEvent per completed simulation (and per
// generated trace chunk when the suite streams traces). Calls are
// serialized, so implementations need no locking of their own.
type ProgressFunc func(RunEvent)

// ProgressWriter adapts an io.Writer to a ProgressFunc, reproducing the
// suite's historical progress-line format byte for byte (cache hits and
// trace.gen lines, which did not exist historically, are marked).
func ProgressWriter(w io.Writer) ProgressFunc {
	return func(ev RunEvent) {
		switch {
		case ev.Stage == "trace.gen" && ev.Cached:
			fmt.Fprintf(w, "  gen %-14s cached stream (%.1fMB)\n",
				ev.Workload, float64(ev.Bytes)/(1<<20))
		case ev.Stage == "trace.gen":
			fmt.Fprintf(w, "  gen %-14s chunk %4d  %8.1fMB\n",
				ev.Workload, ev.Chunk, float64(ev.Bytes)/(1<<20))
		case ev.Cached:
			fmt.Fprintf(w, "  hit %-14s %-22s %9d cycles  (cached)\n",
				ev.Workload, ev.Design, ev.Cycles)
		default:
			fmt.Fprintf(w, "  ran %-14s %-22s %9d cycles  (%.1fs)\n",
				ev.Workload, ev.Design, ev.Cycles, ev.Wall.Seconds())
		}
	}
}

// Suite runs experiments over a workload set. All methods are safe for
// concurrent use: traces and results are memoized behind a singleflight,
// so a key requested by many goroutines simulates exactly once and every
// caller receives the identical result.
type Suite struct {
	Params workloads.Params
	// Progress, when non-nil, is called once per completed simulation.
	// Calls are serialized so consumers stay unfragmented under
	// concurrency. Use ProgressWriter to keep the old io.Writer behaviour.
	Progress ProgressFunc
	// Workers bounds the goroutine pool used by Precompute and RunAll
	// (0 = runtime.NumCPU()); with IntraWorkers it forms the total thread
	// budget split between concurrent runs and threads per run.
	Workers int
	// IntraWorkers sets the partitioned-engine worker threads inside each
	// simulation (core.WithIntraParallelism). 0 lets RunAll choose: wide
	// stages keep one thread per run (inter-run parallelism already fills
	// the budget), narrow/tail stages give the few remaining runs the
	// spare threads. Results are byte-identical at any setting — every
	// suite simulation uses the canonical partitioned schedule.
	IntraWorkers int
	// BatchedTranslation runs every simulation with the batched translation
	// front-end (core.Config.BatchedTranslation): applied to each design's
	// Config before the run, so it participates in artifact-cache keys.
	// Designs without a per-CU-TLB front end are unaffected.
	BatchedTranslation bool
	// ChurnTenants overrides the tenant-count axis of the tenant-churn
	// figure (empty = {2, 8, 24}).
	ChurnTenants []int
	// CaptureMetrics, when true, retains a final metrics-registry snapshot
	// for every simulated (workload, design) pair, retrievable via
	// Metrics. Off by default: snapshots hold the full per-CU counter set.
	CaptureMetrics bool
	// EventTrace, when non-nil, receives every simulation's cycle-stamped
	// component events; each run becomes its own trace process named
	// "workload/design".
	EventTrace *obs.TraceWriter
	// Cache, when non-nil, backs the in-memory memoization with the on-disk
	// artifact cache: traces and results found there are loaded instead of
	// computed, and everything computed is stored for the next process.
	// Results are bypassed (computed live) when CaptureMetrics or
	// EventTrace is set, since those need an actual simulation; traces are
	// cached regardless.
	Cache *artifact.Cache
	// StreamTraces replays workloads from chunked (v4) streams instead of
	// materialized traces: generation emits chunks as they are produced
	// (bounded by ChunkBudget, with per-chunk Progress events) and each
	// simulation reads one chunk ahead through a cursor, so peak memory is
	// bounded by the chunk window rather than the trace size. With a Cache
	// attached the stream lives on disk and cache hits replay straight off
	// the file; without one it is held in memory. Results are
	// byte-identical to materialized replay at any budget.
	StreamTraces bool
	// ChunkBudget is the per-chunk byte target for StreamTraces
	// (0 = trace.DefaultChunkBudget).
	ChunkBudget int

	gens []workloads.Generator

	mu      sync.Mutex // guards the traces, ctraces and results maps
	traces  map[string]*traceCall
	ctraces map[string]*ctraceCall
	results map[string]*runCall

	progressMu sync.Mutex
}

// traceCall and runCall are singleflight slots: the goroutine that claims
// a key does the work and closes done; later arrivals wait on done and
// read the stored value.
type traceCall struct {
	done chan struct{}
	tr   *trace.Trace
}

type runCall struct {
	done chan struct{}
	res  core.Results
	snap obs.Snapshot // end-of-run metrics, when CaptureMetrics is set
}

// ctraceCall is the singleflight slot for one workload's chunked stream:
// a file path when the stream lives in the artifact cache, raw bytes when
// the suite has no cache to stream from.
type ctraceCall struct {
	done chan struct{}
	path string
	raw  []byte
}

// New builds a suite over the named workloads (empty = the full catalog).
func New(p workloads.Params, subset []string) (*Suite, error) {
	s := &Suite{
		Params:  p,
		traces:  make(map[string]*traceCall),
		ctraces: make(map[string]*ctraceCall),
		results: make(map[string]*runCall),
	}
	if len(subset) == 0 {
		s.gens = workloads.All()
		return s, nil
	}
	for _, name := range subset {
		g, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", name)
		}
		s.gens = append(s.gens, g)
	}
	return s, nil
}

// Workloads returns the suite's generators.
func (s *Suite) Workloads() []workloads.Generator { return s.gens }

func (s *Suite) highBandwidth() []workloads.Generator {
	var out []workloads.Generator
	for _, g := range s.gens {
		if g.HighBandwidth {
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		return s.gens
	}
	return out
}

// generator looks the named workload up in the suite's own subset — not
// the global catalog, so a suite built over a subset never silently
// builds traces for workloads outside it.
func (s *Suite) generator(name string) (workloads.Generator, bool) {
	for _, g := range s.gens {
		if g.Name == name {
			return g, true
		}
	}
	return workloads.Generator{}, false
}

// workers resolves the pool size.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.NumCPU()
}

// Trace builds (and caches) the named workload's trace. The name must
// belong to the suite's workload set; anything else is an error.
func (s *Suite) Trace(name string) (*trace.Trace, error) {
	g, ok := s.generator(name)
	if !ok {
		return nil, fmt.Errorf("experiments: workload %q not in suite", name)
	}
	s.mu.Lock()
	if c, ok := s.traces[name]; ok {
		s.mu.Unlock()
		<-c.done
		return c.tr, nil
	}
	c := &traceCall{done: make(chan struct{})}
	s.traces[name] = c
	s.mu.Unlock()
	key := artifact.TraceKey(name, s.Params)
	if c.tr = s.Cache.GetTrace(key); c.tr == nil {
		c.tr = g.Build(s.Params)
		s.Cache.PutTrace(key, c.tr)
	}
	close(c.done)
	return c.tr, nil
}

// chunkedStream builds (and memoizes) the named workload's chunked (v4)
// stream. With a cache attached the stream is generated straight into the
// cache file — a later process streams it off disk without regenerating —
// and per-chunk Progress events fire as generation proceeds.
func (s *Suite) chunkedStream(name string) (*ctraceCall, error) {
	g, ok := s.generator(name)
	if !ok {
		return nil, fmt.Errorf("experiments: workload %q not in suite", name)
	}
	s.mu.Lock()
	if c, ok := s.ctraces[name]; ok {
		s.mu.Unlock()
		<-c.done
		return c, nil
	}
	c := &ctraceCall{done: make(chan struct{})}
	s.ctraces[name] = c
	s.mu.Unlock()
	defer close(c.done)

	key := artifact.ChunkedTraceKey(name, s.Params)
	if path, ok := s.Cache.ChunkedTracePath(key); ok {
		c.path = path
		var size int64
		if st, err := os.Stat(path); err == nil {
			size = st.Size()
		}
		s.emit(RunEvent{Workload: name, Stage: "trace.gen", Cached: true, Bytes: size})
		return c, nil
	}
	var written int64
	opts := trace.ChunkOptions{
		Budget: s.ChunkBudget,
		OnChunk: func(index, storedBytes int) {
			written += int64(storedBytes)
			s.emit(RunEvent{Workload: name, Stage: "trace.gen", Chunk: index, Bytes: written})
		},
	}
	if s.Cache != nil {
		if path, ok := s.Cache.PutChunkedTrace(key, func(w io.Writer) error {
			_, err := g.BuildChunked(s.Params, w, opts)
			return err
		}); ok {
			c.path = path
			return c, nil
		}
		// A failed cache write (read-only or full directory) degrades to an
		// in-memory stream, like every other artifact Put failure.
	}
	var buf bytes.Buffer
	if _, err := g.BuildChunked(s.Params, &buf, opts); err != nil {
		return nil, fmt.Errorf("experiments: streaming %s: %w", name, err)
	}
	c.raw = buf.Bytes()
	return c, nil
}

// openCursor opens a fresh cursor over the workload's chunked stream
// (each simulation consumes its own cursor).
func (s *Suite) openCursor(name string) (*trace.Cursor, error) {
	c, err := s.chunkedStream(name)
	if err != nil {
		return nil, err
	}
	if c.path != "" {
		return trace.OpenCursorFile(c.path)
	}
	return trace.NewCursor(bytes.NewReader(c.raw))
}

// cachesResults reports whether Run may serve results from the artifact
// cache: metrics capture and event tracing need a live simulation.
func (s *Suite) cachesResults() bool {
	return s.Cache != nil && !s.CaptureMetrics && s.EventTrace == nil
}

// resultKey derives the artifact-cache key for one simulation. It needs
// only the workload's name and parameters, not its built trace — which is
// what lets a fully-cached re-run skip trace generation entirely.
func (s *Suite) resultKey(wl string, cfg core.Config) artifact.Fingerprint {
	return artifact.ResultKey(artifact.TraceKey(wl, s.Params), cfg)
}

// Run simulates workload wl under cfg, memoized on (wl, cfg.Name). Configs
// with the same Name must be identical; the design presets guarantee this.
// Concurrent callers racing on one key all receive the result computed by
// whichever goroutine claimed it first. Run panics if wl is outside the
// suite's workload set (a programmer error — figures only request their
// own suite's generators); use Trace to probe membership.
func (s *Suite) Run(wl string, cfg core.Config) core.Results {
	return s.run(wl, cfg, s.intraDefault())
}

// intraDefault resolves the per-run thread count for directly-invoked
// runs (RunAll computes its own split).
func (s *Suite) intraDefault() int {
	if s.IntraWorkers > 0 {
		return s.IntraWorkers
	}
	return 1
}

// run is Run with an explicit per-simulation thread count. The thread
// count never changes the outcome — every suite run uses the canonical
// partitioned schedule, which is byte-identical for any count — so
// memoization and the artifact cache are oblivious to it.
func (s *Suite) run(wl string, cfg core.Config, intra int) core.Results {
	if _, ok := s.generator(wl); !ok {
		panic(fmt.Errorf("experiments: workload %q not in suite", wl))
	}
	if s.BatchedTranslation {
		// Mutate before the cache key is derived so batched and legacy
		// results never collide in the artifact cache.
		cfg.BatchedTranslation = true
	}
	key := runKey(wl, cfg.Name)
	s.mu.Lock()
	if c, ok := s.results[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.res
	}
	c := &runCall{done: make(chan struct{})}
	s.results[key] = c
	s.mu.Unlock()
	start := time.Now()
	// Consult the on-disk cache before touching the trace: a cached result
	// makes generating or loading the (much larger) trace unnecessary.
	if s.cachesResults() {
		if res, ok := s.Cache.GetResults(s.resultKey(wl, cfg)); ok {
			c.res = res
			close(c.done)
			s.emit(RunEvent{Workload: wl, Design: cfg.Name, Cycles: res.Cycles,
				Wall: time.Since(start), Cached: true})
			return c.res
		}
	}
	sys := core.MustNew(cfg)
	opts := []core.Option{core.WithIntraParallelism(intra)}
	if s.EventTrace != nil {
		opts = append(opts, core.WithEventTrace(s.EventTrace.Process(wl+"/"+cfg.Name)))
	}
	var res core.Results
	if s.StreamTraces {
		cur, err := s.openCursor(wl)
		if err != nil {
			panic(fmt.Errorf("experiments: opening %s stream: %w", wl, err))
		}
		res, err = sys.RunCursor(context.Background(), cur, opts...)
		cur.Close()
		if err != nil {
			panic(err) // ErrDeadlock or a corrupted stream chunk
		}
	} else {
		tr, err := s.Trace(wl)
		if err != nil {
			panic(err) // unreachable: membership was validated above
		}
		res, err = sys.RunContext(context.Background(), tr, opts...)
		if err != nil {
			panic(err) // ErrDeadlock: a modeling bug, matching System.Run
		}
	}
	c.res = res
	if s.CaptureMetrics {
		// Snapshot after the run so observation never adds engine events.
		c.snap = sys.Metrics().Snapshot(sys.Engine().Now())
	}
	if s.cachesResults() {
		s.Cache.PutResults(s.resultKey(wl, cfg), c.res)
	}
	close(c.done)
	s.emit(RunEvent{Workload: wl, Design: cfg.Name, Cycles: c.res.Cycles, Wall: time.Since(start)})
	return c.res
}

// Metrics returns the end-of-run metrics snapshot for a simulated
// (workload, design) pair, waiting for an in-flight run. It reports false
// when the pair has not been simulated or CaptureMetrics was off.
func (s *Suite) Metrics(wl, design string) (obs.Snapshot, bool) {
	s.mu.Lock()
	c, ok := s.results[runKey(wl, design)]
	s.mu.Unlock()
	if !ok {
		return obs.Snapshot{}, false
	}
	<-c.done
	return c.snap, c.snap.Names != nil
}

// runKey is the memoization key for one simulation.
func runKey(wl, design string) string { return wl + "\x00" + design }

// Results returns a snapshot of every memoized run, keyed by
// workload + "\x00" + design name, waiting for in-flight simulations.
func (s *Suite) Results() map[string]core.Results {
	s.mu.Lock()
	calls := make(map[string]*runCall, len(s.results))
	for k, c := range s.results {
		calls[k] = c
	}
	s.mu.Unlock()
	out := make(map[string]core.Results, len(calls))
	for k, c := range calls {
		<-c.done
		out[k] = c.res
	}
	return out
}

// emit serializes Progress callbacks so concurrent runs never interleave.
func (s *Suite) emit(ev RunEvent) {
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	if s.Progress == nil {
		return
	}
	s.Progress(ev)
}

// baseline512 returns the Baseline 512 design with residency probing on,
// so the same runs serve Figures 2, 3, 4, 8 and 9.
func baseline512Probed() core.Config {
	c := core.DesignBaseline512()
	c.ProbeResidency = true
	return c
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortByDesc(names []string, key map[string]float64) {
	sort.SliceStable(names, func(i, j int) bool { return key[names[i]] > key[names[j]] })
}
