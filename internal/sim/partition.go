// Conservative windowed execution over a set of partition engines.
//
// A Partitioned runner drives one Engine per system partition through
// cycle windows. The window width is the lookahead: the minimum latency of
// any cross-partition message. Within a window each partition executes its
// own events; events destined for another partition are buffered in a
// per-source outbox and merged into the destination engines at the window
// barrier, in canonical (when, source partition, local order) order.
//
// Because a message sent by an event executing at cycle t carries a delay
// of at least the lookahead L, and every event in the window [W, W+L-1]
// has t >= W, the message arrives at t+delay >= W+L — strictly after the
// window — so no partition can miss a cross-partition event that should
// have executed inside its current window. The schedule is therefore a
// pure function of the partition graph and the events scheduled on it.
package sim

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

	outbox [][]crossMsg // per-source-partition buffered sends

	windows   uint64 // synchronization windows executed
	crossings uint64 // cross-partition messages delivered
}

// NewPartitioned builds a runner over the given engines. lookahead is the
// minimum cross-partition message delay in cycles (clamped to >= 1).
func NewPartitioned(engines []*Engine, lookahead uint64) *Partitioned {
	if len(engines) == 0 {
		panic("sim: NewPartitioned with no engines")
	}
	if lookahead == 0 {
		lookahead = 1
	}
	return &Partitioned{
		engines:   engines,
		lookahead: lookahead,
		outbox:    make([][]crossMsg, len(engines)),
	}
}

// Lookahead returns the window width in cycles.
func (p *Partitioned) Lookahead() uint64 { return p.lookahead }

// Windows returns the number of synchronization windows executed so far.
func (p *Partitioned) Windows() uint64 { return p.windows }

// Crossings returns the number of cross-partition messages delivered.
func (p *Partitioned) Crossings() uint64 { return p.crossings }

// Engine returns the partition's engine.
func (p *Partitioned) Engine(part int) *Engine { return p.engines[part] }

// SendEvent buffers h.Handle(arg) for the dst partition, delay cycles
// after the src partition's current cycle. It must be called from src's
// executing event (or between windows); delivery happens at the next
// window barrier. A delay below the lookahead is still delivered
// deterministically, at the later of its cycle and the destination's clock
// at the barrier.
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
// canonical tie-break exactly.
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
// false. onWindow (optional) runs at each barrier — every engine with
// pending events advanced to the window limit — and may inspect any
// partition state; returning false stops the run. Run may be called again
// once it returns (e.g. after scheduling more events); Windows and
// Crossings accumulate across runs. A panic in an event handler
// propagates out of Run.
func (p *Partitioned) Run(onWindow func(limit uint64) bool) {
	for {
		p.flush()
		w, ok := p.nextWindow()
		if !ok {
			return
		}
		limit := w + p.lookahead - 1
		p.windows++
		p.advance(limit)
		if onWindow != nil && !onWindow(limit) {
			return
		}
	}
}

// advance runs every partition to the limit. Engines with nothing queued
// are skipped without advancing their clock: a stalled frontend's next
// event arrives by absolute-cycle mailbox delivery, so a lagging clock is
// harmless and the skip saves a clock-jump per window per idle partition.
// An engine whose hint places its next event past the limit moves straight
// to the limit (RunUntil's fast path), so a window scans each engine at
// most once: when it drains.
func (p *Partitioned) advance(limit uint64) {
	for _, e := range p.engines {
		if e.Pending() > 0 {
			e.RunUntil(limit)
		}
	}
}
