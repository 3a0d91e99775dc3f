package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "vcache/api/v1"
	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// gateRunner is a fake runner whose runs block until released (or their
// ctx fires), so the tests control exactly when the single worker frees
// up. It records start order and call count.
type gateRunner struct {
	started chan string // "workload/design@seed" per run start
	gate    chan struct{}

	mu    sync.Mutex
	calls int
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan string, 64), gate: make(chan struct{}, 64)}
}

func (g *gateRunner) run(ctx context.Context, _ *trace.Builder, _ *core.System, wl string, p workloads.Params, cfg core.Config, progress func(core.Progress)) (core.Results, []byte, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	g.started <- fmt.Sprintf("%s@%d", wl, p.Seed)
	if progress != nil {
		progress(core.Progress{Cycle: 1, Events: 1})
	}
	select {
	case <-g.gate:
		return core.Results{Workload: wl, Design: cfg.Name, Cycles: 1000 + p.Seed}, []byte(`{"cycle":1,"metrics":{}}`), nil
	case <-ctx.Done():
		return core.Results{}, nil, ctx.Err()
	}
}

func (g *gateRunner) callCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// newTestServer builds a 1-worker server with the gate runner injected
// and no artifact cache (every distinct spec simulates).
func newTestServer(t *testing.T, queueCap int) (*Server, *gateRunner) {
	t.Helper()
	g := newGateRunner()
	s := New(Options{Workers: 1, QueueCap: queueCap})
	s.runner = g
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, g
}

// spec builds a valid job spec; seed differentiates fingerprints.
func spec(seed uint64, priority int) apiv1.JobSpec {
	return apiv1.JobSpec{
		APIVersion: apiv1.Version,
		Workload:   apiv1.WorkloadSpec{Name: "nw", Params: workloads.Params{Scale: 1, Seed: seed}},
		Design:     apiv1.DesignSpec{Preset: "ideal"},
		Priority:   priority,
	}
}

func waitStart(t *testing.T, g *gateRunner) string {
	t.Helper()
	select {
	case s := <-g.started:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("no run started within 5s")
		return ""
	}
}

func waitTerminal(t *testing.T, s *Server, id string) apiv1.JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	info, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return info
}

func TestQueueFullRejected(t *testing.T) {
	s, g := newTestServer(t, 2)
	a, err := s.Submit(spec(1, 0))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	waitStart(t, g) // a occupies the only worker
	for i := uint64(2); i <= 3; i++ {
		if _, err := s.Submit(spec(i, 0)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Queue (cap 2) is full; the running job does not count against it.
	if _, err := s.Submit(spec(4, 0)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: got %v, want ErrQueueFull", err)
	}
	// Rejection is not terminal for the service: draining one slot
	// re-admits.
	g.gate <- struct{}{}
	waitTerminal(t, s, a.ID)
	waitStart(t, g)
	if _, err := s.Submit(spec(4, 0)); err != nil {
		t.Fatalf("resubmit after drain: %v", err)
	}
}

func TestPriorityDrainOrder(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	// Queue four more while the worker is pinned; they must drain by
	// (priority desc, FIFO).
	ids := []string{}
	for _, sub := range []struct {
		seed uint64
		prio int
	}{{2, 0}, {3, 5}, {4, 5}, {5, 1}} {
		info, err := s.Submit(spec(sub.seed, sub.prio))
		if err != nil {
			t.Fatalf("submit seed %d: %v", sub.seed, err)
		}
		ids = append(ids, info.ID)
	}
	_ = ids
	g.gate <- struct{}{}
	waitTerminal(t, s, a.ID)
	want := []string{"nw@3", "nw@4", "nw@5", "nw@2"}
	for i, w := range want {
		got := waitStart(t, g)
		if got != w {
			t.Fatalf("drain position %d: got %s, want %s", i, got, w)
		}
		g.gate <- struct{}{}
	}
}

func TestCoalesceRunningDuplicate(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	b, err := s.Submit(spec(1, 0)) // identical: coalesces onto a's run
	if err != nil {
		t.Fatalf("submit dup: %v", err)
	}
	if !b.Coalesced {
		t.Error("duplicate of a running job not marked coalesced")
	}
	if b.Fingerprint != a.Fingerprint {
		t.Error("identical specs produced different fingerprints")
	}
	g.gate <- struct{}{}
	ia, ib := waitTerminal(t, s, a.ID), waitTerminal(t, s, b.ID)
	if ia.State != apiv1.JobDone || ib.State != apiv1.JobDone {
		t.Fatalf("states: %s / %s, want done / done", ia.State, ib.State)
	}
	ra, _ := s.Result(a.ID)
	rb, _ := s.Result(b.ID)
	if string(ra) != string(rb) || len(ra) == 0 {
		t.Error("coalesced jobs returned different result bytes")
	}
	if n := g.callCount(); n != 1 {
		t.Errorf("runner ran %d times for 2 identical jobs, want 1", n)
	}
}

func TestCoalesceQueuedDuplicateAndPriorityBoost(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	lo, _ := s.Submit(spec(2, 0))    // queued at priority 0
	other, _ := s.Submit(spec(3, 1)) // queued at priority 1
	dup, err := s.Submit(spec(2, 5)) // duplicate of lo at priority 5
	if err != nil {
		t.Fatalf("submit dup: %v", err)
	}
	if !dup.Coalesced {
		t.Error("duplicate of a queued job not marked coalesced")
	}
	g.gate <- struct{}{}
	// The hot duplicate dragged seed-2's shared run ahead of priority 1.
	if got := waitStart(t, g); got != "nw@2" {
		t.Fatalf("first drained run %s, want nw@2 (priority boosted by duplicate)", got)
	}
	g.gate <- struct{}{}
	if got := waitStart(t, g); got != "nw@3" {
		t.Fatalf("second drained run %s, want nw@3", got)
	}
	g.gate <- struct{}{}
	for _, id := range []string{a.ID, lo.ID, other.ID, dup.ID} {
		if info := waitTerminal(t, s, id); info.State != apiv1.JobDone {
			t.Errorf("%s: state %s, want done", id, info.State)
		}
	}
	if n := g.callCount(); n != 3 {
		t.Errorf("runner ran %d times for 4 jobs (one pair identical), want 3", n)
	}
}

func TestCancelRunningFreesWorker(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	b, _ := s.Submit(spec(2, 0)) // queued behind a
	if err := s.Cancel(a.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// The canceled run's ctx fires, the fake returns ctx.Err(), and the
	// freed worker must pick b up — no gate release needed for a.
	if got := waitStart(t, g); got != "nw@2" {
		t.Fatalf("after cancel, started %s, want nw@2", got)
	}
	if info := waitTerminal(t, s, a.ID); info.State != apiv1.JobCanceled {
		t.Errorf("canceled job state %s, want canceled", info.State)
	}
	g.gate <- struct{}{}
	if info := waitTerminal(t, s, b.ID); info.State != apiv1.JobDone {
		t.Errorf("successor state %s, want done", info.State)
	}
	if _, err := s.Result(a.ID); err == nil {
		t.Error("canceled job served a result")
	}
}

func TestCancelQueuedSkipsWithoutWorker(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	b, _ := s.Submit(spec(2, 0))
	c, _ := s.Submit(spec(3, 0))
	if err := s.Cancel(b.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if info := waitTerminal(t, s, b.ID); info.State != apiv1.JobCanceled {
		t.Fatalf("queued cancel: state %s, want canceled", info.State)
	}
	g.gate <- struct{}{}
	// b must be skipped entirely: the next run to start is c.
	if got := waitStart(t, g); got != "nw@3" {
		t.Fatalf("after queued cancel, started %s, want nw@3", got)
	}
	g.gate <- struct{}{}
	waitTerminal(t, s, c.ID)
	if n := g.callCount(); n != 2 {
		t.Errorf("runner ran %d times, want 2 (canceled queued job skipped)", n)
	}
	_ = a
}

func TestResubmitAfterQueuedCancelRunsFresh(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g) // worker pinned on a
	b, _ := s.Submit(spec(2, 0))
	if err := s.Cancel(b.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	waitTerminal(t, s, b.ID)
	// The canceled run must be gone from the fingerprint index: an
	// identical resubmission starts a fresh run instead of attaching to
	// the doomed one and being spuriously finalized as canceled.
	b2, err := s.Submit(spec(2, 0))
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if b2.Coalesced {
		t.Fatal("resubmission coalesced onto a canceled run")
	}
	g.gate <- struct{}{}
	waitTerminal(t, s, a.ID)
	if got := waitStart(t, g); got != "nw@2" {
		t.Fatalf("resubmitted run started as %s, want nw@2", got)
	}
	g.gate <- struct{}{}
	if info := waitTerminal(t, s, b2.ID); info.State != apiv1.JobDone {
		t.Fatalf("resubmitted job state %s, want done", info.State)
	}
	if n := g.callCount(); n != 2 {
		t.Errorf("runner ran %d times, want 2 (a + resubmission; canceled b never ran)", n)
	}
}

func TestResubmitAfterRunningCancelRunsFresh(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	if err := s.Cancel(a.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if info := waitTerminal(t, s, a.ID); info.State != apiv1.JobCanceled {
		t.Fatalf("a state %s, want canceled", info.State)
	}
	// The doomed run's ctx is fired; the same spec must get a new run.
	a2, err := s.Submit(spec(1, 0))
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if a2.Coalesced {
		t.Fatal("resubmission coalesced onto a canceled running run")
	}
	waitStart(t, g)
	g.gate <- struct{}{}
	if info := waitTerminal(t, s, a2.ID); info.State != apiv1.JobDone {
		t.Fatalf("resubmitted job state %s, want done", info.State)
	}
}

func TestCancelQueuedFreesQueueSlot(t *testing.T) {
	s, g := newTestServer(t, 1)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g) // worker pinned; queue cap 1
	b, _ := s.Submit(spec(2, 0))
	if _, err := s.Submit(spec(3, 0)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: got %v, want ErrQueueFull", err)
	}
	// Canceling the queued run must free its slot immediately, without
	// waiting for a worker to pop and skip it.
	if err := s.Cancel(b.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if _, err := s.Submit(spec(3, 0)); err != nil {
		t.Fatalf("submit after queued cancel: %v", err)
	}
	g.gate <- struct{}{}
	waitTerminal(t, s, a.ID)
	if got := waitStart(t, g); got != "nw@3" {
		t.Fatalf("next run %s, want nw@3 (canceled b left the queue)", got)
	}
	g.gate <- struct{}{}
}

func TestTerminalJobRetentionBounded(t *testing.T) {
	g := newGateRunner()
	s := New(Options{Workers: 1, QueueCap: 16, RetainDone: 2})
	s.runner = g
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		info, err := s.Submit(spec(seed, 0))
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, info.ID)
		waitStart(t, g)
		g.gate <- struct{}{}
		waitTerminal(t, s, info.ID)
	}
	// Retention cap 2: the oldest-finished record is evicted, newer ones
	// stay fetchable.
	if _, err := s.Job(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest terminal job still retained: %v", err)
	}
	if _, err := s.Result(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("evicted job result: %v, want ErrUnknownJob", err)
	}
	for _, id := range ids[1:] {
		if info, err := s.Job(id); err != nil || info.State != apiv1.JobDone {
			t.Errorf("retained job %s: %+v, %v; want done", id, info, err)
		}
	}
	snap := s.MetricsSnapshot()
	if v, ok := snap.Value("server.jobs.evicted"); !ok || v != 1 {
		t.Errorf("server.jobs.evicted = %v (%v), want 1", v, ok)
	}
	if v, ok := snap.Value("server.jobs.retained"); !ok || v != 2 {
		t.Errorf("server.jobs.retained = %v (%v), want 2", v, ok)
	}
}

func TestCoalescedCancelOnlyStopsRunWhenAllGone(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	b, _ := s.Submit(spec(1, 0)) // coalesced onto a
	if err := s.Cancel(a.ID); err != nil {
		t.Fatalf("cancel a: %v", err)
	}
	if info := waitTerminal(t, s, a.ID); info.State != apiv1.JobCanceled {
		t.Fatalf("a state %s, want canceled", info.State)
	}
	// b still wants the run: it must survive a's cancellation.
	g.gate <- struct{}{}
	if info := waitTerminal(t, s, b.ID); info.State != apiv1.JobDone {
		t.Fatalf("b state %s, want done (run shared with canceled a)", info.State)
	}
}

// TestSubscribeStreamsLifecycle: a subscriber that joins before its job
// starts sees every event type of the job's life. The single worker is
// held on another job while a is submitted and subscribed, so a cannot
// start (and emit its progress event) before the subscription exists.
func TestSubscribeStreamsLifecycle(t *testing.T) {
	s, g := newTestServer(t, 16)
	s.Submit(spec(2, 0))
	waitStart(t, g)
	a, _ := s.Submit(spec(1, 0))
	ch, cancel, err := s.Subscribe(a.ID)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer cancel()
	g.gate <- struct{}{}
	g.gate <- struct{}{}
	waitTerminal(t, s, a.ID)
	var types []string
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				goto drained
			}
			types = append(types, ev.Type)
			if ev.Type == "done" && ev.State != apiv1.JobDone {
				t.Errorf("done event state %s, want done", ev.State)
			}
		case <-deadline:
			t.Fatalf("stream never closed; saw %v", types)
		}
	}
drained:
	want := map[string]bool{"state": false, "progress": false, "metrics": false, "done": false}
	for _, ty := range types {
		want[ty] = true
	}
	for ty, seen := range want {
		if !seen {
			t.Errorf("event stream missing %q events: %v", ty, types)
		}
	}
	// Late subscriber to a terminal job gets a closed replay, not a hang.
	late, _, err := s.Subscribe(a.ID)
	if err != nil {
		t.Fatalf("late subscribe: %v", err)
	}
	n := 0
	for range late {
		n++
	}
	if n < 2 { // state + done at minimum
		t.Errorf("late subscriber replay had %d events, want >= 2", n)
	}
}

func TestQueueIntrospection(t *testing.T) {
	s, g := newTestServer(t, 16)
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	lo, _ := s.Submit(spec(2, 0))
	hi, _ := s.Submit(spec(3, 7))
	q := s.Queue()
	if q.Workers != 1 || q.Busy != 1 || q.Queued != 2 || q.QueueCap != 16 {
		t.Errorf("queue doc %+v, want 1 worker busy, 2 queued, cap 16", q)
	}
	if len(q.Jobs) != 3 {
		t.Fatalf("queue lists %d jobs, want 3", len(q.Jobs))
	}
	if q.Jobs[0].ID != a.ID || q.Jobs[0].State != apiv1.JobRunning {
		t.Errorf("first listed job %+v, want running %s", q.Jobs[0], a.ID)
	}
	if q.Jobs[1].ID != hi.ID || q.Jobs[2].ID != lo.ID {
		t.Errorf("queued order %s,%s, want %s,%s (priority first)",
			q.Jobs[1].ID, q.Jobs[2].ID, hi.ID, lo.ID)
	}
	g.gate <- struct{}{}
	g.gate <- struct{}{}
	g.gate <- struct{}{}
	waitTerminal(t, s, lo.ID)
	h := s.Health()
	if h.Status != "ok" || h.JobsDone != 3 {
		t.Errorf("health %+v, want ok with 3 done", h)
	}
	snap := s.MetricsSnapshot()
	if v, ok := snap.Value("server.jobs.done"); !ok || v != 3 {
		t.Errorf("server.jobs.done = %v (%v), want 3", v, ok)
	}
}

func TestSubmitErrors(t *testing.T) {
	s, _ := newTestServer(t, 16)
	bad := spec(1, 0)
	bad.Workload.Name = "nope"
	if _, err := s.Submit(bad); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := s.Job("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: %v, want ErrUnknownJob", err)
	}
	if err := s.Cancel("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel unknown: %v, want ErrUnknownJob", err)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	g := newGateRunner()
	s := New(Options{Workers: 1, QueueCap: 16})
	s.runner = g
	a, _ := s.Submit(spec(1, 0))
	waitStart(t, g)
	b, _ := s.Submit(spec(2, 0)) // still queued at close
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		info, err := s.Job(id)
		if err != nil || info.State != apiv1.JobCanceled {
			t.Errorf("%s after close: %+v, %v; want canceled", id, info, err)
		}
	}
	if _, err := s.Submit(spec(3, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// panicRunner panics on seed 1 and completes every other run at once.
type panicRunner struct{}

func (panicRunner) run(ctx context.Context, _ *trace.Builder, _ *core.System, wl string, p workloads.Params, cfg core.Config, progress func(core.Progress)) (core.Results, []byte, error) {
	if p.Seed == 1 {
		panic("modelling invariant broken")
	}
	return core.Results{Workload: wl, Design: cfg.Name, Cycles: 1000 + p.Seed}, []byte(`{"cycle":1,"metrics":{}}`), nil
}

// TestPanickingRunFailsAlone: a run that panics fails its job, carrying
// the panic value and stack, and the daemon keeps serving.
func TestPanickingRunFailsAlone(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 16})
	s.runner = panicRunner{}
	bad, err := s.Submit(spec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	info := waitTerminal(t, s, bad.ID)
	if info.State != apiv1.JobFailed {
		t.Fatalf("panicking job state %s, want failed", info.State)
	}
	if !strings.Contains(info.Error, "modelling invariant broken") || !strings.Contains(info.Error, "panicRunner") {
		t.Errorf("failure lacks the panic value or its stack: %q", info.Error)
	}
	good, err := s.Submit(spec(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if info := waitTerminal(t, s, good.ID); info.State != apiv1.JobDone {
		t.Fatalf("job after the panic: state %s (%s), want done", info.State, info.Error)
	}
	snap := s.MetricsSnapshot()
	if v, _ := snap.Value("server.jobs.failed"); v != 1 {
		t.Errorf("server.jobs.failed = %v, want 1", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close after a panicked run: %v", err)
	}
}

// TestWorkerJobsMatchLibrary: the workers build every job's trace into
// their Builders and run it on Systems they reuse, Reset, across designs,
// workloads and shapes, a larger trace after a smaller one and back, and
// each job they simulate serves the bytes of a fresh library run; a
// resubmission serves the cached document, the same bytes. Systems are
// reused, the idle list never holds more than one System per worker, and
// Close drops it.
func TestWorkerJobsMatchLibrary(t *testing.T) {
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	s := New(Options{Workers: workers, QueueCap: 16, Cache: cache})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	jobs := []struct {
		workload, design string
		cus, warps       int
	}{
		{"nw", "vc-opt", 4, 2},
		{"hotspot", "baseline-512", 8, 4},
		{"bfs", "vc-opt", 16, 8},
		{"kmeans", "baseline-512", 2, 1},
		{"nw", "baseline-512", 8, 4},
		{"pathfinder", "vc-opt", 2, 1},
		{"backprop", "ideal", 8, 4},
		{"nw", "vc-opt", 8, 4},
		{"hotspot", "baseline-512", 4, 2},
		{"kmeans", "vc-opt", 16, 8},
	}
	for i, jb := range jobs {
		spec := apiv1.JobSpec{
			APIVersion: apiv1.Version,
			Workload: apiv1.WorkloadSpec{Name: jb.workload, Params: workloads.Params{
				Scale: 1, NumCUs: jb.cus, WarpsPerCU: jb.warps, Seed: uint64(i + 1),
			}},
			Design: apiv1.DesignSpec{Preset: jb.design},
		}
		cfg, p, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		g, _ := workloads.ByName(jb.workload)
		local, err := core.RunContext(context.Background(), cfg, g.Build(p))
		if err != nil {
			t.Fatalf("%s: local run: %v", jb.workload, err)
		}
		want := core.EncodeResults(local)
		for _, hit := range []bool{false, true} {
			info, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if info = waitTerminal(t, s, info.ID); info.State != apiv1.JobDone || info.CacheHit != hit {
				t.Fatalf("%s on %s at %dx%d: state %s (%s), cache_hit=%v; want done, cache_hit=%v",
					jb.workload, jb.design, jb.cus, jb.warps, info.State, info.Error, info.CacheHit, hit)
			}
			if got, err := s.Result(info.ID); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s on %s at %dx%d (cache_hit=%v): served bytes differ from a fresh library run (%v)",
					jb.workload, jb.design, jb.cus, jb.warps, hit, err)
			}
		}
		s.mu.Lock()
		idle := len(s.systems.idle)
		s.mu.Unlock()
		if idle > workers {
			t.Errorf("after job %d: %d idle Systems, more than the %d workers", i, idle, workers)
		}
	}
	snap := s.MetricsSnapshot()
	reused, _ := snap.Value("server.systems.reused")
	built, _ := snap.Value("server.systems.built")
	t.Logf("Systems: %v reused, %v built for %d simulated jobs", reused, built, len(jobs))
	if reused == 0 || reused+built != float64(len(jobs)) {
		t.Errorf("systems.reused = %v and systems.built = %v over %d simulated jobs; want some reused, summing to the jobs", reused, built, len(jobs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if len(s.systems.idle) != 0 {
		t.Errorf("Close kept %d idle Systems", len(s.systems.idle))
	}
}

// TestSystemPool: the pool hands back the most recently kept System of a
// configuration, counts takes that found one and takes that did not, and
// beyond its bound drops the oldest idle System.
func TestSystemPool(t *testing.T) {
	keyA := core.ConfigFingerprint(core.DesignBaseline512())
	keyB := core.ConfigFingerprint(core.DesignVCOpt())
	a1, a2, b1 := new(core.System), new(core.System), new(core.System)
	p := systemPool{max: 2}
	if p.take(keyA) != nil {
		t.Fatal("an empty pool returned a System")
	}
	p.keep(keyA, a1)
	p.keep(keyA, a2)
	if got := p.take(keyA); got != a2 {
		t.Fatal("take did not return the most recently kept System")
	}
	p.keep(keyA, a2)
	p.keep(keyB, b1) // drops a1, the oldest
	if len(p.idle) != 2 {
		t.Fatalf("%d idle Systems, want the bound 2", len(p.idle))
	}
	if got := p.take(keyA); got != a2 {
		t.Fatal("take after the bound did not return the kept System")
	}
	if p.take(keyA) != nil {
		t.Fatal("the oldest System was not dropped beyond the bound")
	}
	if got := p.take(keyB); got != b1 {
		t.Fatal("take did not find the other configuration's System")
	}
	if p.reused != 3 || p.built != 2 {
		t.Errorf("reused %d, built %d; want 3 and 2", p.reused, p.built)
	}
}

// TestFailedRunDropsItsSystem: a run that panics gives no System back, as
// no failed run does, and the next run of the configuration builds one.
func TestFailedRunDropsItsSystem(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 16})
	s.runner = panicRunner{}
	for _, seed := range []uint64{2, 1, 3} { // done, panicked, done
		info, err := s.Submit(spec(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, info.ID)
	}
	s.mu.Lock()
	reused, built, idle := s.systems.reused, s.systems.built, len(s.systems.idle)
	s.mu.Unlock()
	if reused != 1 || built != 2 || idle != 1 {
		t.Errorf("reused %d, built %d, idle %d; want 1, 2 and 1: the panicked run kept its System", reused, built, idle)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
