// Conservative windowed delivery between the partitions of one engine.
//
// A Partitioned runner drives one Engine through cycle windows on behalf
// of a set of system partitions. Every partition's events live on that
// engine; a partition is kept only as the source of cross-partition
// messages. The window width is the lookahead: the minimum latency of any
// cross-partition message. Within a window the engine fires events in
// cycle order; messages bound for another partition are buffered in a
// per-source outbox and scheduled at the window barrier, in canonical
// (when, source partition, local order) order.
//
// Because a message sent by an event executing at cycle t carries a delay
// of at least the lookahead L, and every event in the window [W, W+L-1]
// has t >= W, the message arrives at t+delay >= W+L — strictly after the
// window — so delivering it at the barrier never moves it. The schedule is
// therefore a pure function of the partition graph and the events
// scheduled on it.
package sim

// crossMsg is one buffered cross-partition event.
type crossMsg struct {
	when uint64
	h    Handler
	arg  uint64
}

// Partitioned delivers cross-partition messages through conservative
// cycle windows over one engine. Construct with NewPartitioned; drive
// with Run.
type Partitioned struct {
	eng       *Engine
	lookahead uint64

	outbox [][]crossMsg // per-source-partition buffered sends

	windows   uint64 // synchronization windows executed
	crossings uint64 // cross-partition messages delivered
}

// NewPartitioned builds a runner over eng for parts partitions. lookahead
// is the minimum cross-partition message delay in cycles (clamped to
// >= 1).
func NewPartitioned(eng *Engine, parts int, lookahead uint64) *Partitioned {
	if parts <= 0 {
		panic("sim: NewPartitioned with no partitions")
	}
	if lookahead == 0 {
		lookahead = 1
	}
	return &Partitioned{
		eng:       eng,
		lookahead: lookahead,
		outbox:    make([][]crossMsg, parts),
	}
}

// Reset drops every buffered message and zeroes the window and crossing
// counts, as NewPartitioned leaves them, keeping the outboxes' storage.
// Reset the engine with it.
func (p *Partitioned) Reset() {
	for src, ob := range p.outbox {
		clear(ob)
		p.outbox[src] = ob[:0]
	}
	p.windows, p.crossings = 0, 0
}

// Lookahead returns the window width in cycles.
func (p *Partitioned) Lookahead() uint64 { return p.lookahead }

// Windows returns the number of synchronization windows executed so far.
func (p *Partitioned) Windows() uint64 { return p.windows }

// Crossings returns the number of cross-partition messages delivered.
func (p *Partitioned) Crossings() uint64 { return p.crossings }

// SendEvent buffers h.Handle(arg) from the src partition, delay cycles
// after the engine's current cycle. It must be called from an executing
// event of src (or between windows); delivery happens at the next window
// barrier. A delay below the lookahead is still delivered
// deterministically, at the later of its cycle and the clock at the
// barrier.
func (p *Partitioned) SendEvent(src int, delay uint64, h Handler, arg uint64) {
	p.outbox[src] = append(p.outbox[src], crossMsg{when: p.eng.now + delay, h: h, arg: arg})
}

// flush schedules every outbox on the engine in canonical order: ascending
// when, ties broken by source partition then by send order within the
// source. No sorting is needed: the engine fires events in cycle order
// regardless of insertion order and assigns same-cycle FIFO rank by
// insertion order (the overflow heap keys on (when, seq) with the same
// property), so walking the outboxes source-ascending reproduces the
// canonical tie-break exactly.
func (p *Partitioned) flush() {
	for src, ob := range p.outbox {
		if len(ob) == 0 {
			continue
		}
		for i := range ob {
			p.eng.at(ob[i].when, ob[i].h, ob[i].arg)
			ob[i] = crossMsg{} // release handler references
		}
		p.crossings += uint64(len(ob))
		p.outbox[src] = ob[:0]
	}
}

// Run executes windows until the engine drains or onWindow returns false.
// Each window opens at the engine's next event and runs it to the window
// limit. onWindow (optional) runs at each barrier, with the clock at the
// limit, and may inspect any partition state; returning false stops the
// run. Run may be called again once it returns (e.g. after scheduling
// more events); Windows and Crossings accumulate across runs. A panic in
// an event handler propagates out of Run.
func (p *Partitioned) Run(onWindow func(limit uint64) bool) {
	for {
		p.flush()
		w, ok := p.eng.NextEvent()
		if !ok {
			return
		}
		limit := w + p.lookahead - 1
		p.windows++
		p.eng.RunUntil(limit)
		if onWindow != nil && !onWindow(limit) {
			return
		}
	}
}
