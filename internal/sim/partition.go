// Conservative parallel execution over a set of partition engines.
//
// A Partitioned runner drives one Engine per system partition through
// synchronized cycle windows. The window width is the lookahead: the
// minimum latency of any cross-partition message. Within a window every
// partition executes its own events independently (possibly on separate
// OS threads); events destined for another partition are buffered in a
// per-source outbox and merged into the destination engines at the window
// barrier, in canonical (when, source partition, local order) order.
//
// Because a message sent by an event executing at cycle t carries a delay
// of at least the lookahead L, and every event in the window [W, W+L-1]
// has t >= W, the message arrives at t+delay >= W+L — strictly after the
// window — so no partition can ever miss a cross-partition event that
// should have executed inside its current window. The schedule is
// therefore a pure function of the partition graph, independent of the
// worker count: one worker and N workers execute byte-identical runs.
package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// crossMsg is one buffered cross-partition event.
type crossMsg struct {
	when uint64
	dst  int32
	h    Handler
	arg  uint64
}

// Partitioned coordinates a set of partition engines through conservative
// cycle windows. Construct with NewPartitioned; drive with Run.
type Partitioned struct {
	engines   []*Engine
	lookahead uint64
	owner     []int // partition index -> worker index
	workers   int

	outbox [][]crossMsg // per-source-partition buffered sends

	windows   uint64 // synchronization windows executed
	crossings uint64 // cross-partition messages delivered

	// Parallel-phase state (all atomic; the spin barrier's happens-before
	// edges come from these).
	epoch   atomic.Uint64
	limit   atomic.Uint64
	stop    atomic.Bool
	arrived atomic.Int64

	panics []any // per-worker captured panic values
	done   chan struct{}
}

// NewPartitioned builds a runner over the given engines. lookahead is the
// minimum cross-partition message delay in cycles (clamped to >= 1).
// workers bounds the OS-thread parallelism (see SetWorkers). The executed
// schedule is identical for every worker count.
func NewPartitioned(engines []*Engine, lookahead uint64, workers int) *Partitioned {
	if len(engines) == 0 {
		panic("sim: NewPartitioned with no engines")
	}
	if lookahead == 0 {
		lookahead = 1
	}
	p := &Partitioned{
		engines:   engines,
		lookahead: lookahead,
		outbox:    make([][]crossMsg, len(engines)),
		owner:     make([]int, len(engines)),
	}
	p.SetWorkers(workers)
	return p
}

// SetWorkers sets the OS-thread parallelism of the next Run, clamped to
// [1, min(len(engines), GOMAXPROCS)]. Worker 0 always owns partition 0
// (by convention the shared backend); the remaining partitions are
// assigned round-robin over workers 1..workers-1, or all to worker 0 when
// workers == 1. Call between runs only.
func (p *Partitioned) SetWorkers(workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(p.engines) {
		workers = len(p.engines)
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	p.workers = workers
	for i := range p.owner {
		if i == 0 || workers == 1 {
			p.owner[i] = 0
		} else {
			p.owner[i] = (i-1)%(workers-1) + 1
		}
	}
}

// Lookahead returns the window width in cycles.
func (p *Partitioned) Lookahead() uint64 { return p.lookahead }

// Workers returns the resolved worker count.
func (p *Partitioned) Workers() int { return p.workers }

// Windows returns the number of synchronization windows executed so far.
func (p *Partitioned) Windows() uint64 { return p.windows }

// Crossings returns the number of cross-partition messages delivered.
func (p *Partitioned) Crossings() uint64 { return p.crossings }

// Engine returns the partition's engine.
func (p *Partitioned) Engine(part int) *Engine { return p.engines[part] }

// SendEvent buffers h.Handle(arg) for the dst partition, delay cycles
// after the src partition's current cycle. It must be called from src's
// executing event (or between windows); delivery happens at the next
// window barrier. For correctness under workers > 1, delay must be >= the
// lookahead; smaller delays are still delivered deterministically but
// clamp to the barrier cycle.
func (p *Partitioned) SendEvent(src, dst int, delay uint64, h Handler, arg uint64) {
	p.outbox[src] = append(p.outbox[src], crossMsg{
		when: p.engines[src].now + delay,
		dst:  int32(dst),
		h:    h,
		arg:  arg,
	})
}

// flush delivers every outbox into the destination engines in canonical
// order: ascending when, ties broken by source partition then by send
// order within the source. No sorting is needed: engines fire events in
// cycle order regardless of insertion order and assign same-cycle FIFO
// rank by insertion order (the overflow heap keys on (when, seq) with the
// same property), so walking the outboxes source-ascending reproduces the
// canonical tie-break exactly, whichever worker produced each message.
func (p *Partitioned) flush() {
	for src, ob := range p.outbox {
		if len(ob) == 0 {
			continue
		}
		for i := range ob {
			p.engines[ob[i].dst].at(ob[i].when, ob[i].h, ob[i].arg)
			ob[i] = crossMsg{} // release handler references
		}
		p.crossings += uint64(len(ob))
		p.outbox[src] = ob[:0]
	}
}

// nextWindow returns the earliest pending event cycle across all
// partitions, after outboxes have been flushed. It reads each engine's
// next-event hint, which RunUntil left exact and flush lowered, so an
// engine is scanned here only if a Step has run on it since.
func (p *Partitioned) nextWindow() (uint64, bool) {
	var min uint64
	ok := false
	for _, e := range p.engines {
		if w, has := e.NextEvent(); has && (!ok || w < min) {
			min, ok = w, true
		}
	}
	return min, ok
}

// Run executes windows until every engine drains or onWindow returns
// false. onWindow (optional) runs at each barrier — workers quiescent,
// all engines advanced to the window limit — and may inspect any
// partition state; returning false stops the run. Run may be called again
// once it returns (e.g. after scheduling more events); Windows and
// Crossings accumulate across runs.
func (p *Partitioned) Run(onWindow func(limit uint64) bool) {
	if p.workers <= 1 {
		p.runSerial(onWindow)
		return
	}
	p.runParallel(onWindow)
}

func (p *Partitioned) runSerial(onWindow func(limit uint64) bool) {
	for {
		p.flush()
		w, ok := p.nextWindow()
		if !ok {
			return
		}
		limit := w + p.lookahead - 1
		p.windows++
		p.runOwned(0, limit) // workers==1 ⇒ worker 0 owns every partition
		if onWindow != nil && !onWindow(limit) {
			return
		}
	}
}

// runParallel runs the same schedule as runSerial with the partitions
// spread over worker goroutines. The caller's goroutine acts as worker 0
// (the leader): it merges outboxes, computes each window, publishes the
// limit, executes its own partitions, and joins the others at a spin
// barrier. Atomics provide the happens-before edges, so the runner is
// race-detector clean.
func (p *Partitioned) runParallel(onWindow func(limit uint64) bool) {
	// Reset the barrier before any worker starts: a fresh worker treats
	// every epoch other than zero as an open window.
	p.epoch.Store(0)
	p.stop.Store(false)
	p.arrived.Store(0)
	// The worker count is read once, here: a worker's exit path must not
	// read p.workers, which the next run's SetWorkers may be rewriting.
	workers := p.workers
	p.panics = make([]any, workers)
	p.done = make(chan struct{})
	var finished atomic.Int64
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer func() {
				if r := recover(); r != nil {
					p.panics[w] = r
					p.stop.Store(true)
					// The leader is joining this window; unblock it.
					p.arrived.Add(1)
				}
				if finished.Add(1) == int64(workers-1) {
					close(p.done)
				}
			}()
			p.workerLoop(w)
		}(w)
	}

	var epoch uint64
	abort := func() {
		p.stop.Store(true)
		p.epoch.Store(epoch + 1) // release workers so they observe stop
		<-p.done
	}
	// A panic in a leader-owned partition must still release the workers,
	// or they would spin forever on the never-advancing epoch.
	defer func() {
		if r := recover(); r != nil {
			abort()
			panic(r)
		}
	}()
	for {
		p.flush()
		w, ok := p.nextWindow()
		if !ok || p.stop.Load() {
			abort()
			break
		}
		limit := w + p.lookahead - 1
		p.windows++
		p.limit.Store(limit)
		p.arrived.Store(0)
		epoch++
		p.epoch.Store(epoch) // opens the window for workers
		p.runOwned(0, limit)
		// Join barrier. stop breaks the wait: a panicking worker raises it
		// and its still-healthy peers may observe it and exit without
		// arriving; abort() below waits for every worker to return before
		// the leader proceeds.
		for p.arrived.Load() != int64(workers-1) && !p.stop.Load() {
			runtime.Gosched()
		}
		if p.stop.Load() {
			abort()
			break
		}
		if onWindow != nil && !onWindow(limit) {
			abort()
			break
		}
	}
	for w, r := range p.panics {
		if r != nil {
			panic(fmt.Sprintf("sim: partition worker %d: %v", w, r))
		}
	}
}

// workerLoop is the non-leader body: wait for the leader to open a
// window, execute the owned partitions up to its limit, report arrival.
func (p *Partitioned) workerLoop(w int) {
	var seen uint64
	for {
		e := p.epoch.Load()
		if e == seen {
			runtime.Gosched()
			continue
		}
		seen = e
		if p.stop.Load() {
			return
		}
		p.runOwned(w, p.limit.Load())
		p.arrived.Add(1)
	}
}

// runOwned advances every partition owned by worker w to the limit.
// Engines with nothing queued are skipped without advancing their clock:
// a stalled frontend's next event arrives by absolute-cycle mailbox
// delivery, so a lagging clock is harmless and the skip saves a
// clock-jump per window per idle partition. An engine whose hint places
// its next event past the limit moves straight to the limit (RunUntil's
// fast path), so a window scans each engine at most once: when it drains.
func (p *Partitioned) runOwned(w int, limit uint64) {
	for part, owner := range p.owner {
		if e := p.engines[part]; owner == w && e.Pending() > 0 {
			e.RunUntil(limit)
		}
	}
}
