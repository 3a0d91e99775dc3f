// Package server implements vcsimd's job engine: a bounded worker pool
// over the deterministic simulator with priority scheduling, admission
// control, result-fingerprint coalescing and a shared artifact cache.
//
// Every job is content-addressed by artifact.ResultKey(workload+params,
// config) — the same fingerprint the on-disk artifact cache uses. That one
// key powers the service's three fast paths:
//
//   - cache hit: a submission whose result is already on disk completes
//     immediately, without occupying a queue slot or worker;
//   - coalescing: a submission identical to a queued or running job
//     attaches to that run (singleflight) instead of simulating twice;
//   - byte-identical replies: results are stored and served as their
//     canonical JSON document (core.EncodeResults), encoded once per run
//     and served from a cache hit as stored, so two jobs with one
//     fingerprint return literally the same bytes.
//
// Runs execute the simulator's one (partitioned) schedule, so a result
// computed by the daemon is byte-identical to one computed by the
// library, vcsim or the figure suite, or found in a cache shared with
// them. Each worker builds every job's trace into one trace.Builder it
// owns, so a cold job on a warm worker allocates nothing to generate its
// trace, and simulates it on an idle System of the job's configuration,
// Reset by the run that last used it, building one only when none is
// idle.
//
// The HTTP surface (http.go) is a thin translation of this engine into
// the api/v1 wire schema.
package server

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	apiv1 "vcache/api/v1"
	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/experiments"
	"vcache/internal/fingerprint"
	"vcache/internal/obs"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size (default 1: simulations
	// are CPU-bound, so one per core is the ceiling that makes sense).
	Workers int
	// QueueCap bounds the number of *queued* runs (running jobs do not
	// count). Submissions beyond it are rejected with ErrQueueFull
	// (HTTP 429). Default 64.
	QueueCap int
	// Cache, when non-nil, is the shared artifact cache: result hits
	// complete without simulating, and every computed result is stored
	// for later jobs (and for vcsim and experiments runs against the same
	// directory). A job that simulates builds its trace from the
	// workload's generator; traces are not stored.
	Cache *artifact.Cache
	// Progress, when non-nil, receives one experiments.RunEvent per
	// completed run or cache hit, exactly like the suite's progress feed.
	// Calls are serialized.
	Progress experiments.ProgressFunc
	// RetainDone bounds how many terminal job records the server keeps
	// for later status/result fetches. Each done job pins its canonical
	// result and metrics bytes, so without a bound a long-lived daemon
	// grows memory with every job ever run. Beyond the bound the
	// oldest-finished records are evicted (counted in jobs.evicted) and
	// their IDs answer ErrUnknownJob / 404 — results remain fetchable by
	// resubmitting the spec, which hits the artifact cache. Values < 1
	// use the default 4096.
	RetainDone int
}

// defaultRetainDone is the terminal-job retention bound when Options
// leaves RetainDone unset.
const defaultRetainDone = 4096

// ErrQueueFull rejects a submission when the queue is at capacity; the
// HTTP layer maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("server: job queue full")

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("server: shutting down")

// ErrUnknownJob reports a job ID the server has never issued.
var ErrUnknownJob = errors.New("server: unknown job")

// runner executes one simulation. The indirection exists for the tests:
// scheduling tests inject a blocking fake so admission, priorities,
// coalescing and cancellation are exercised without real simulations.
type runner interface {
	// run returns the results plus a final metrics-registry snapshot in
	// obs JSON form. It builds the job's trace into b, the calling
	// worker's Builder, which nothing may hold once run returns, and runs
	// it on sys, a new or Reset System of configuration cfg. It must honor
	// ctx.
	run(ctx context.Context, b *trace.Builder, sys *core.System, workload string, p workloads.Params, cfg core.Config, progress func(core.Progress)) (core.Results, []byte, error)
}

// simRunner is the real thing: the workload's trace built from its
// generator into the worker's Builder, then a RunContext on the worker's
// System. Neither the System, Reset before it is kept, nor the Results
// hold the trace.
type simRunner struct{}

func (simRunner) run(ctx context.Context, b *trace.Builder, sys *core.System, workload string, p workloads.Params, _ core.Config, progress func(core.Progress)) (core.Results, []byte, error) {
	g, ok := workloads.ByName(workload)
	if !ok {
		return core.Results{}, nil, fmt.Errorf("server: unknown workload %q", workload)
	}
	if err := ctx.Err(); err != nil {
		return core.Results{}, nil, err
	}
	tr := g.BuildInto(b, p)
	var opts []core.Option
	if progress != nil {
		opts = append(opts, core.WithProgress(progress))
	}
	res, err := sys.RunContext(ctx, tr, opts...)
	if err != nil {
		return core.Results{}, nil, err
	}
	// Snapshot after the run so observation never perturbs the schedule.
	snap := sys.Metrics().Snapshot(sys.Now())
	return res, snap.AppendJSON(nil), nil
}

// simulate runs one job on sys, or on a System it builds when sys is nil,
// and encodes its outcome. A run that completed also returns its System,
// Reset for the next run of the configuration; the Results are encoded
// first, since their lifetime record is the System's until Reset. A run
// that failed returns no System: whatever state it left is dropped.
func simulate(ctx context.Context, rn runner, b *trace.Builder, sys *core.System, workload string, p workloads.Params, cfg core.Config, progress func(core.Progress)) (core.Results, outcome, *core.System, error) {
	if sys == nil {
		var err error
		if sys, err = core.New(cfg); err != nil {
			return core.Results{}, outcome{}, nil, err
		}
	}
	res, metricsJSON, err := rn.run(ctx, b, sys, workload, p, cfg, progress)
	if err != nil {
		return core.Results{}, outcome{}, nil, err
	}
	out := outcome{cycles: res.Cycles, resultJSON: core.EncodeResults(res), metricsJSON: metricsJSON}
	sys.Reset()
	return res, out, sys, nil
}

// systemPool holds the Systems of completed runs, each Reset, for later
// runs of the same configuration, keyed by core.ConfigFingerprint: a
// worker takes one instead of calling core.New. It keeps at most max,
// dropping the oldest beyond that, so the daemon keeps no more idle
// Systems than it has workers. Not safe for concurrent use: the server
// holds s.mu.
type systemPool struct {
	max    int
	idle   []idleSystem // oldest first
	reused uint64       // takes that found an idle System
	built  uint64       // takes that found none, so the caller builds one
}

// idleSystem is one idle System and its configuration's fingerprint.
type idleSystem struct {
	key fingerprint.Sum
	sys *core.System
}

// take removes and returns the most recently kept System of the
// configuration key names, or returns nil when none is idle.
func (p *systemPool) take(key fingerprint.Sum) *core.System {
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			sys := p.idle[i].sys
			p.idle = slices.Delete(p.idle, i, i+1)
			p.reused++
			return sys
		}
	}
	p.built++
	return nil
}

// keep adds a Reset System of the configuration key names, dropping the
// oldest idle System beyond max.
func (p *systemPool) keep(key fingerprint.Sum, sys *core.System) {
	p.idle = append(p.idle, idleSystem{key: key, sys: sys})
	if len(p.idle) > p.max {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// run is one simulation the pool will execute, shared by every job whose
// spec fingerprints to its key.
type run struct {
	key      artifact.Fingerprint
	sysKey   fingerprint.Sum // core.ConfigFingerprint(cfg): the idle Systems it may take
	workload string
	design   string
	params   workloads.Params
	cfg      core.Config

	priority int
	seq      uint64 // FIFO tiebreak within a priority
	heapIdx  int    // position in the queue heap, -1 once popped/removed
	running  bool

	jobs   []*job // attached jobs, first is the originator
	active int    // attached jobs not yet individually canceled

	ctx    context.Context
	cancel context.CancelFunc
}

// job is one submission's lifecycle record.
type job struct {
	id        string
	workload  string
	design    string
	priority  int
	key       artifact.Fingerprint
	submitted time.Time

	state     apiv1.JobState
	cacheHit  bool
	coalesced bool
	errMsg    string
	wallMS    float64
	outcome   // set when done

	run  *run
	done chan struct{} // closed on terminal state

	subs map[*subscriber]struct{}
}

// outcome is what a done job serves: its run's cycle count, canonical
// results document (core.EncodeResults) and final metrics snapshot. Every
// job attached to one run shares the run's outcome, and a cache hit's
// document is the entry's payload as read, so every job with the same
// fingerprint serves identical bytes.
type outcome struct {
	cycles      uint64
	resultJSON  []byte
	metricsJSON []byte
}

// subscriber is one event-stream consumer. Progress events are dropped
// when its buffer is full; lifecycle events force-disconnect a consumer
// that cannot keep up instead of blocking the engine.
type subscriber struct {
	ch     chan apiv1.Event
	closed bool
}

// counters is the server's own metrics block, exported through an
// obs.Registry (GET /v1/metrics) like any simulator component.
type counters struct {
	Submitted uint64
	Rejected  uint64
	CacheHits uint64
	Coalesced uint64
	Done      uint64
	Failed    uint64
	Canceled  uint64
	Evicted   uint64
}

// Server is the job engine. Construct with New; all methods are safe for
// concurrent use.
type Server struct {
	workers    int
	queueCap   int
	retainDone int
	cache      *artifact.Cache
	runner     runner
	progress   experiments.ProgressFunc
	start      time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	reg *obs.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	jobs    map[string]*job
	runs    map[artifact.Fingerprint]*run // queued + running
	queue   runHeap
	systems systemPool // idle Systems, at most one per worker
	// doneOrder lists retained terminal job IDs oldest-first; once it
	// exceeds retainDone the head is evicted from jobs.
	doneOrder []string
	busy      int
	seq       uint64
	idSeq     uint64
	ctr       counters

	progressMu sync.Mutex
}

// New builds and starts a server: opts.Workers goroutines wait for jobs
// immediately. Stop with Close.
func New(opts Options) *Server {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.QueueCap < 1 {
		opts.QueueCap = 64
	}
	if opts.RetainDone < 1 {
		opts.RetainDone = defaultRetainDone
	}
	s := &Server{
		workers:    opts.Workers,
		queueCap:   opts.QueueCap,
		retainDone: opts.RetainDone,
		cache:      opts.Cache,
		runner:     simRunner{},
		progress:   opts.Progress,
		start:      time.Now(),
		jobs:       make(map[string]*job),
		runs:       make(map[artifact.Fingerprint]*run),
		systems:    systemPool{max: opts.Workers},
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.buildRegistry()
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// buildRegistry registers the server's counters and gauges. Gauge reads
// take the server mutex, so snapshots must be taken without it held.
func (s *Server) buildRegistry() {
	s.reg = obs.NewRegistry()
	sc := s.reg.Scope("server")
	read := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	sc.Gauge("jobs.submitted", read(func() float64 { return float64(s.ctr.Submitted) }))
	sc.Gauge("jobs.rejected", read(func() float64 { return float64(s.ctr.Rejected) }))
	sc.Gauge("jobs.cache_hits", read(func() float64 { return float64(s.ctr.CacheHits) }))
	sc.Gauge("jobs.coalesced", read(func() float64 { return float64(s.ctr.Coalesced) }))
	sc.Gauge("jobs.done", read(func() float64 { return float64(s.ctr.Done) }))
	sc.Gauge("jobs.failed", read(func() float64 { return float64(s.ctr.Failed) }))
	sc.Gauge("jobs.canceled", read(func() float64 { return float64(s.ctr.Canceled) }))
	sc.Gauge("jobs.evicted", read(func() float64 { return float64(s.ctr.Evicted) }))
	sc.Gauge("jobs.retained", read(func() float64 { return float64(len(s.doneOrder)) }))
	sc.Gauge("queue.depth", read(func() float64 { return float64(len(s.queue)) }))
	sc.Gauge("queue.cap", func() float64 { return float64(s.queueCap) })
	sc.Gauge("workers.busy", read(func() float64 { return float64(s.busy) }))
	sc.Gauge("workers.total", func() float64 { return float64(s.workers) })
	sc.Gauge("systems.reused", read(func() float64 { return float64(s.systems.reused) }))
	sc.Gauge("systems.built", read(func() float64 { return float64(s.systems.built) }))
	s.cache.Observe(s.reg.Scope("artifact"))
}

// MetricsSnapshot reads the server's metrics registry.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	return s.reg.Snapshot(uint64(time.Since(s.start).Milliseconds()))
}

// Close stops accepting jobs, cancels queued and running runs, drops the
// idle Systems, and waits for the workers (or ctx).
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.systems.idle = nil
	// Queued runs never reach a worker now; retire them as canceled.
	for len(s.queue) > 0 {
		r := heap.Pop(&s.queue).(*run)
		delete(s.runs, r.key)
		r.cancel()
		s.finalizeLocked(r, apiv1.JobCanceled, outcome{}, context.Canceled)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel() // running jobs observe ctx cancellation mid-run
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit validates and enqueues one job, returning its immediate status:
// done (cache hit), queued, or queued-coalesced. ErrQueueFull and
// *apiv1.SpecError map to 429 and 400 at the HTTP layer.
func (s *Server) Submit(spec apiv1.JobSpec) (apiv1.JobInfo, error) {
	cfg, p, err := spec.Resolve()
	if err != nil {
		return apiv1.JobInfo{}, err
	}
	key := artifact.ResultKey(artifact.TraceKey(spec.Workload.Name, p), cfg)
	sysKey := core.ConfigFingerprint(cfg)

	// Cache probe before taking the lock: it reads the disk. A racing
	// identical submission is still safe — it either coalesces onto a run
	// below or probes the cache itself. A hit serves the stored document
	// as read; decoding it only validates it and reads its cycle count.
	var cached *outcome
	if res, doc, ok := s.cache.GetResultsDoc(key); ok {
		cached = &outcome{cycles: res.Cycles, resultJSON: doc}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return apiv1.JobInfo{}, ErrClosed
	}
	s.ctr.Submitted++
	s.idSeq++
	j := &job{
		id:        fmt.Sprintf("j%06d", s.idSeq),
		workload:  spec.Workload.Name,
		design:    cfg.Name,
		priority:  spec.Priority,
		key:       key,
		submitted: time.Now(),
		state:     apiv1.JobQueued,
		done:      make(chan struct{}),
		subs:      make(map[*subscriber]struct{}),
	}
	s.jobs[j.id] = j

	if r, ok := s.runs[key]; ok && r.ctx.Err() == nil {
		// Identical job already queued or running: attach (singleflight).
		// The ctx guard is defensive — Cancel unindexes a doomed run in
		// the same critical section that cancels it, so a resubmission
		// must never attach to a run that can only finish canceled.
		j.coalesced = true
		j.run = r
		r.jobs = append(r.jobs, j)
		r.active++
		if !r.running && j.priority > r.priority {
			// A hotter duplicate drags the shared run forward in the queue.
			r.priority = j.priority
			heap.Fix(&s.queue, r.heapIdx)
		}
		s.ctr.Coalesced++
		return s.infoLocked(j), nil
	}

	if cached != nil {
		j.cacheHit = true
		s.completeJobLocked(j, apiv1.JobDone, *cached, "")
		s.ctr.CacheHits++
		s.emitProgress(experiments.RunEvent{
			Workload: j.workload, Design: j.design,
			Cycles: cached.cycles, Wall: time.Since(j.submitted), Cached: true,
		})
		return s.infoLocked(j), nil
	}

	if len(s.queue) >= s.queueCap {
		delete(s.jobs, j.id) // never existed, as far as the API is concerned
		s.ctr.Rejected++
		return apiv1.JobInfo{}, ErrQueueFull
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	s.seq++
	r := &run{
		key: key, sysKey: sysKey, workload: spec.Workload.Name, design: cfg.Name,
		params: p, cfg: cfg,
		priority: spec.Priority, seq: s.seq,
		jobs: []*job{j}, active: 1,
		ctx: ctx, cancel: cancel,
	}
	j.run = r
	s.runs[key] = r
	heap.Push(&s.queue, r)
	s.cond.Signal()
	return s.infoLocked(j), nil
}

// worker pops runs in (priority desc, FIFO) order and executes them. It
// builds every run's trace into one Builder, which grows to the largest
// trace the worker has built and is released when the worker returns at
// Close, and takes each run's System from the idle Systems of its
// configuration as it pops the run. A run that simulated is encoded, and
// written to the cache, once, and its System Reset, before the server
// lock is taken; then the System goes back to the idle list.
func (s *Server) worker() {
	defer s.wg.Done()
	b := trace.NewBuilder("", 0, 1, 1)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		r := heap.Pop(&s.queue).(*run)
		sys := s.systems.take(r.sysKey)
		r.running = true
		s.busy++
		for _, j := range r.jobs {
			if !j.state.Terminal() {
				j.state = apiv1.JobRunning
				s.broadcastLocked(j, apiv1.Event{Type: "state", Job: j.id, State: apiv1.JobRunning})
			}
		}
		s.mu.Unlock()

		started := time.Now()
		out, sys, err := s.execute(r, b, sys)
		if err == nil {
			s.cache.PutResultsDoc(r.key, out.resultJSON)
		}

		s.mu.Lock()
		s.busy--
		if sys != nil && !s.closed {
			s.systems.keep(r.sysKey, sys)
		}
		// A canceled run already left the index, and its fingerprint may
		// now map to a fresh resubmission — only unindex our own run.
		if cur, ok := s.runs[r.key]; ok && cur == r {
			delete(s.runs, r.key)
		}
		switch {
		case err == nil:
			s.finalizeLocked(r, apiv1.JobDone, out, nil)
			s.emitProgress(experiments.RunEvent{
				Workload: r.workload, Design: r.design,
				Cycles: out.cycles, Wall: time.Since(started),
			})
		case errors.Is(err, context.Canceled):
			s.finalizeLocked(r, apiv1.JobCanceled, outcome{}, err)
		default:
			s.finalizeLocked(r, apiv1.JobFailed, outcome{}, err)
		}
		s.mu.Unlock()
	}
}

// execute simulates r on sys, or on a new System when sys is nil,
// building its trace into b, and returns the System to keep when the run
// completed. A panic anywhere in the run becomes the run's error,
// carrying the panic value and stack, so one bad job fails alone instead
// of taking down the daemon and every job in flight; its System is
// dropped, and the next run resets b, whatever state the panic left it
// in.
func (s *Server) execute(r *run, b *trace.Builder, sys *core.System) (out outcome, kept *core.System, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, kept = outcome{}, nil
			err = fmt.Errorf("server: run panicked: %v\n%s", p, debug.Stack())
		}
	}()
	_, out, kept, err = simulate(r.ctx, s.runner, b, sys, r.workload, r.params, r.cfg, func(p core.Progress) {
		s.fanoutProgress(r, p)
	})
	return out, kept, err
}

// fanoutProgress fans a core.Progress report out to every attached job's
// subscribers. Called from the simulation goroutine between engine chunks.
func (s *Server) fanoutProgress(r *run, p core.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range r.jobs {
		if j.state.Terminal() {
			continue
		}
		s.broadcastLocked(j, apiv1.Event{
			Type: "progress", Job: j.id, Cycle: p.Cycle, Events: p.Events,
		})
	}
}

// finalizeLocked retires every non-terminal job attached to r; a done run
// hands every job the same outcome.
func (s *Server) finalizeLocked(r *run, state apiv1.JobState, out outcome, err error) {
	msg := ""
	if err != nil && state == apiv1.JobFailed {
		msg = err.Error()
	}
	for _, j := range r.jobs {
		if j.state.Terminal() {
			continue
		}
		s.completeJobLocked(j, state, out, msg)
	}
}

// completeJobLocked moves one job to a terminal state and notifies
// waiters and subscribers. A done job keeps out, which it serves.
func (s *Server) completeJobLocked(j *job, state apiv1.JobState, out outcome, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.wallMS = float64(time.Since(j.submitted).Microseconds()) / 1e3
	switch state {
	case apiv1.JobDone:
		j.outcome = out
		s.ctr.Done++
	case apiv1.JobFailed:
		s.ctr.Failed++
	case apiv1.JobCanceled:
		s.ctr.Canceled++
	}
	if len(j.metricsJSON) > 0 {
		s.broadcastLocked(j, apiv1.Event{Type: "metrics", Job: j.id, Metrics: j.metricsJSON})
	}
	s.broadcastLocked(j, apiv1.Event{Type: "state", Job: j.id, State: state})
	s.broadcastLocked(j, apiv1.Event{Type: "done", Job: j.id, State: state, Error: errMsg})
	for sub := range j.subs {
		s.closeSubLocked(j, sub)
	}
	close(j.done)
	// Bounded retention: remember this terminal record, evict the
	// oldest-finished beyond the cap so a long-lived daemon's jobs map
	// (and the result/metrics bytes done jobs pin) stays bounded.
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.retainDone {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if oldJob, ok := s.jobs[old]; ok && oldJob.state.Terminal() {
			delete(s.jobs, old)
			s.ctr.Evicted++
		}
	}
}

// Cancel cancels one job. The shared run is only canceled once every
// attached job has been; a fully-canceled run is removed from the
// fingerprint index immediately, so an identical resubmission starts a
// fresh run instead of attaching to the doomed one. A queued run whose
// jobs are all gone also leaves the heap right away, freeing its queue
// slot without ever consuming a worker.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.state.Terminal() {
		return nil // idempotent
	}
	r := j.run
	s.completeJobLocked(j, apiv1.JobCanceled, outcome{}, "")
	if r == nil {
		return nil
	}
	r.active--
	if r.active > 0 {
		return nil // other submissions still want this run
	}
	r.cancel()
	delete(s.runs, r.key)
	if !r.running {
		heap.Remove(&s.queue, r.heapIdx)
	}
	return nil
}

// Job returns a job's status document.
func (s *Server) Job(id string) (apiv1.JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return apiv1.JobInfo{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return s.infoLocked(j), nil
}

// Result returns a done job's canonical result bytes.
func (s *Server) Result(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch {
	case j.state == apiv1.JobDone:
		return j.resultJSON, nil
	case j.state.Terminal():
		return nil, fmt.Errorf("server: job %s is %s, no result", id, j.state)
	default:
		return nil, fmt.Errorf("server: job %s is %s; wait for it", id, j.state)
	}
}

// Wait blocks until the job is terminal (or ctx fires) and returns its
// final status.
func (s *Server) Wait(ctx context.Context, id string) (apiv1.JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return apiv1.JobInfo{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return apiv1.JobInfo{}, ctx.Err()
	}
	// Render from the held pointer, not a fresh lookup: the record may
	// already have been evicted from the retention window, but a waiter
	// still deserves the final status it waited for.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(j), nil
}

// Queue returns the queue introspection document: running jobs first,
// then queued jobs in drain order.
func (s *Server) Queue() apiv1.QueueInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := apiv1.QueueInfo{
		Workers:  s.workers,
		Busy:     s.busy,
		Queued:   len(s.queue),
		QueueCap: s.queueCap,
	}
	var queued []*run
	for _, r := range s.runs {
		if r.running {
			for _, j := range r.jobs {
				if !j.state.Terminal() {
					q.Jobs = append(q.Jobs, s.infoLocked(j))
				}
			}
		} else {
			queued = append(queued, r)
		}
	}
	sortRuns(q.Jobs, queued)
	for _, r := range queued {
		for _, j := range r.jobs {
			if !j.state.Terminal() {
				q.Jobs = append(q.Jobs, s.infoLocked(j))
			}
		}
	}
	return q
}

// sortRuns orders running-job infos by ID and queued runs in drain order
// (priority desc, seq asc).
func sortRuns(running []apiv1.JobInfo, queued []*run) {
	slices.SortFunc(running, func(a, b apiv1.JobInfo) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(queued, func(a, b *run) int {
		if c := cmp.Compare(b.priority, a.priority); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// Health returns the health document.
func (s *Server) Health() apiv1.Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return apiv1.Health{
		Status:        "ok",
		APIVersion:    apiv1.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.workers,
		Queued:        len(s.queue),
		JobsDone:      s.ctr.Done,
	}
}

// defaultResultsPageLimit bounds a ResultsIndex page when the caller
// passes no (or an oversized) limit.
const defaultResultsPageLimit = 1000

// ResultsIndex lists the shared artifact cache's result entries, sorted by
// fingerprint, paginated by [offset, offset+limit). A server without a
// cache reports an empty index. The listing reads the cache directory, not
// server state, so entries written by other processes sharing the
// directory appear too — the index is the cache's view, not the job
// table's.
func (s *Server) ResultsIndex(offset, limit int) apiv1.ResultsIndex {
	if limit <= 0 || limit > defaultResultsPageLimit {
		limit = defaultResultsPageLimit
	}
	all := s.cache.ListResults()
	idx := apiv1.ResultsIndex{
		APIVersion: apiv1.Version,
		Total:      len(all),
		Offset:     offset,
		Results:    []apiv1.ResultEntry{},
	}
	if offset < 0 || offset >= len(all) {
		return idx
	}
	end := offset + limit
	if end > len(all) {
		end = len(all)
	}
	for _, e := range all[offset:end] {
		idx.Results = append(idx.Results, apiv1.ResultEntry{
			Fingerprint: e.Fingerprint, Bytes: e.Bytes,
		})
	}
	return idx
}

// infoLocked renders a job's current status document.
func (s *Server) infoLocked(j *job) apiv1.JobInfo {
	info := apiv1.JobInfo{
		ID:          j.id,
		State:       j.state,
		Workload:    j.workload,
		Design:      j.design,
		Priority:    j.priority,
		Fingerprint: j.key.String(),
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		Error:       j.errMsg,
		Cycles:      j.cycles,
		WallMS:      j.wallMS,
	}
	return info
}

// emitProgress serializes the experiments.ProgressFunc feed. Callable
// with or without s.mu held (it only touches progressMu).
func (s *Server) emitProgress(ev experiments.RunEvent) {
	if s.progress == nil {
		return
	}
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	s.progress(ev)
}

// ---------------------------------------------------------------------------
// Event subscriptions

// subEventBuffer sizes each subscriber's channel. Progress events beyond
// it are dropped (they are advisory); lifecycle events beyond it drop the
// subscriber, never block the engine.
const subEventBuffer = 256

// Subscribe attaches an event stream to a job: a synthetic "state" event
// for the current state arrives first (with stored metrics and "done" for
// already-terminal jobs), then live events. The returned cancel func
// detaches; the channel closes after the terminal "done" event.
func (s *Server) Subscribe(id string) (<-chan apiv1.Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	sub := &subscriber{ch: make(chan apiv1.Event, subEventBuffer)}
	sub.ch <- apiv1.Event{Type: "state", Job: j.id, State: j.state}
	if j.state.Terminal() {
		if len(j.metricsJSON) > 0 {
			sub.ch <- apiv1.Event{Type: "metrics", Job: j.id, Metrics: j.metricsJSON}
		}
		sub.ch <- apiv1.Event{Type: "done", Job: j.id, State: j.state, Error: j.errMsg}
		close(sub.ch)
		return sub.ch, func() {}, nil
	}
	j.subs[sub] = struct{}{}
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, live := j.subs[sub]; live {
			s.closeSubLocked(j, sub)
		}
	}
	return sub.ch, cancel, nil
}

// broadcastLocked fans one event out to a job's subscribers. Progress
// events are droppable; anything else evicts a subscriber whose buffer is
// full (the SSE writer has stalled — closing beats blocking a worker).
func (s *Server) broadcastLocked(j *job, ev apiv1.Event) {
	for sub := range j.subs {
		select {
		case sub.ch <- ev:
		default:
			if ev.Type != "progress" {
				s.closeSubLocked(j, sub)
			}
		}
	}
}

func (s *Server) closeSubLocked(j *job, sub *subscriber) {
	if sub.closed {
		return
	}
	sub.closed = true
	delete(j.subs, sub)
	close(sub.ch)
}

// ---------------------------------------------------------------------------
// Priority queue

// runHeap orders queued runs by (priority desc, submission seq asc).
type runHeap []*run

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h runHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *runHeap) Push(x any) {
	r := x.(*run)
	r.heapIdx = len(*h)
	*h = append(*h, r)
}
func (h *runHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	old[len(old)-1] = nil
	r.heapIdx = -1
	*h = old[:len(old)-1]
	return r
}
