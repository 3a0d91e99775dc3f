// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine orders events by (cycle, sequence). Components schedule
// callbacks at absolute or relative cycles; the engine runs them in order,
// advancing a global clock. Determinism is guaranteed: events scheduled for
// the same cycle fire in the order they were scheduled.
//
// Internally the engine is a hierarchical calendar queue specialized for
// the near-monotonic cycle deltas a cycle-level simulator produces: events
// within a fixed window of the clock go on per-cycle FIFO lists threaded
// through one node pool (append = O(1), no comparisons), a bitmap over the
// lists finds the next occupied cycle with a handful of word scans, and the
// rare far-future event goes to a typed overflow heap that drains into the
// window as the clock advances. A fired event's node returns to a LIFO free
// list, so steady-state scheduling performs no allocations and no interface
// boxing, and the next schedule writes the cache line the last event just
// vacated. The engine also keeps an exact hint of its next event's cycle,
// so the partitioned runner opens a window, and RunUntil moves the clock
// past an idle stretch, without scanning.
package sim

import "math/bits"

// Handler consumes a scheduled event. Components that schedule in their
// hot path should implement Handler and use ScheduleEvent/AtEvent: the
// (receiver, arg) pair is stored directly in the queue, so no closure is
// allocated per event.
type Handler interface {
	Handle(arg uint64)
}

// Func adapts a plain callback to Handler, ignoring the event argument.
// Func values are pointers, so the interface conversion does not allocate.
type Func func()

// Handle runs f.
func (f Func) Handle(uint64) { f() }

// node is one in-window event: a link in its cycle's FIFO list. Its cycle
// is implied by the list holding it and its FIFO rank by its position, so
// only the handler, the argument and the next link are stored. Index 0 of
// the pool is a sentinel, so a zero link ends a list.
type node struct {
	h    Handler
	arg  uint64
	next int32
}

// event is an overflow-heap entry: a far-future event that needs its
// explicit cycle, plus the sequence number that breaks same-cycle ties
// when the heap drains into the calendar window.
type event struct {
	h    Handler
	arg  uint64
	when uint64
	seq  uint64
}

const (
	// windowBits sizes the calendar window. 1024 cycles covers every
	// latency in the modeled SoC (DRAM is ~160 cycles), so overflow-heap
	// traffic is limited to deliberately far-future events.
	windowBits = 10
	numBuckets = 1 << windowBits
	bucketMask = numBuckets - 1
	wordCount  = numBuckets / 64

	// noEvent is the hint of an empty queue: every schedule lowers it.
	noEvent = ^uint64(0)
)

// Engine is a discrete-event simulator clocked in cycles.
// The zero value is ready to use.
type Engine struct {
	head     [numBuckets]int32 // first node of each cycle's list in [now, now+numBuckets); 0 = empty
	tail     [numBuckets]int32 // last node of each non-empty list
	occupied [wordCount]uint64 // bit i set <=> list i is non-empty
	pool     []node            // every in-window node; pool[0] is the sentinel, allocated lazily
	free     int32             // LIFO free list threaded through node.next; 0 = empty
	bucketed int               // events resident in the lists
	overflow []event           // min-heap on (when, seq) for events past the window

	now   uint64
	seq   uint64
	fired uint64

	// hint is the exact cycle of the earliest pending event (noEvent when
	// none) while hinted is set: at lowers it, RunUntil sets it on exit,
	// Step clears hinted, and NextEvent re-derives it with a scan only
	// then. It is engine state like the queue.
	hint   uint64
	hinted bool
}

// New returns a fresh engine at cycle 0.
func New() *Engine { return &Engine{hint: noEvent, hinted: true} }

// Reset returns the engine to the state New leaves it in, at cycle 0 with
// no event pending, whatever a run left queued, and keeps its node pool
// and overflow heap for the next run: pending events are dropped with
// their handlers, so Reset allocates nothing.
func (e *Engine) Reset() {
	e.head, e.tail, e.occupied = [numBuckets]int32{}, [numBuckets]int32{}, [wordCount]uint64{}
	if len(e.pool) > 0 {
		clear(e.pool)
		e.pool = e.pool[:1] // the sentinel
	}
	clear(e.overflow)
	e.overflow = e.overflow[:0]
	e.free, e.bucketed = 0, 0
	e.now, e.seq, e.fired = 0, 0, 0
	e.hint, e.hinted = noEvent, true
}

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.bucketed + len(e.overflow) }

// Schedule enqueues fn to run delay cycles from now. A delay of zero runs
// fn later in the current cycle (after all previously scheduled events for
// this cycle).
func (e *Engine) Schedule(delay uint64, fn func()) {
	e.at(e.now+delay, Func(fn), 0)
}

// At enqueues fn to run at the absolute cycle when. Scheduling in the past
// is clamped to the current cycle.
func (e *Engine) At(when uint64, fn func()) {
	e.at(when, Func(fn), 0)
}

// ScheduleEvent enqueues h.Handle(arg) to run delay cycles from now
// without allocating: the handler and argument are stored inline in the
// queue. Semantics match Schedule.
func (e *Engine) ScheduleEvent(delay uint64, h Handler, arg uint64) {
	e.at(e.now+delay, h, arg)
}

// AtEvent enqueues h.Handle(arg) at the absolute cycle when. Semantics
// match At.
func (e *Engine) AtEvent(when uint64, h Handler, arg uint64) {
	e.at(when, h, arg)
}

func (e *Engine) at(when uint64, h Handler, arg uint64) {
	if when < e.now {
		when = e.now
	}
	if when < e.hint {
		e.hint = when
	}
	if when-e.now >= numBuckets {
		// seq is only assigned on the overflow path: listed events get
		// their FIFO rank from append order, and pullOverflow drains the
		// heap before any same-cycle direct append can happen, so relative
		// order among overflow entries is all the tie-break must preserve.
		e.pushOverflow(event{h: h, arg: arg, when: when, seq: e.seq})
		e.seq++
		return
	}
	// Append to the cycle's list, in the node the last fired event vacated
	// if there is one.
	n := e.free
	if n != 0 {
		e.free = e.pool[n].next
		e.pool[n] = node{h: h, arg: arg}
	} else {
		n = e.grow(h, arg)
	}
	i := int(when & bucketMask)
	if e.head[i] == 0 {
		e.head[i] = n
		e.occupied[i>>6] |= 1 << uint(i&63)
	} else {
		e.pool[e.tail[i]].next = n
	}
	e.tail[i] = n
	e.bucketed++
}

// grow appends a node to the pool, creating the sentinel on first use.
func (e *Engine) grow(h Handler, arg uint64) int32 {
	if len(e.pool) == 0 {
		e.pool = make([]node, 1, 64)
	}
	e.pool = append(e.pool, node{h: h, arg: arg})
	return int32(len(e.pool) - 1)
}

// pop unlinks the head of list i and returns its event. The node goes on
// the free list with its handler dropped (so the GC can reclaim it) before
// the caller runs the event, so a handler that schedules reuses it at once.
// The caller clears list i's occupancy bit once the list is empty.
func (e *Engine) pop(i int) (Handler, uint64) {
	n := e.head[i]
	nd := &e.pool[n]
	h, arg := nd.h, nd.arg
	e.head[i] = nd.next
	*nd = node{next: e.free}
	e.free = n
	e.bucketed--
	e.fired++
	return h, arg
}

// Step runs the single next event, advancing the clock to its cycle.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	e.hinted = false
	i := int(e.now & bucketMask)
	if e.head[i] == 0 {
		if e.Pending() == 0 {
			return false
		}
		e.now = e.later()
		e.pullOverflow()
		i = int(e.now & bucketMask)
	}
	h, arg := e.pop(i)
	if e.head[i] == 0 {
		e.occupied[i>>6] &^= 1 << uint(i&63)
	}
	h.Handle(arg)
	return true
}

// later returns the cycle of the earliest pending event once the current
// cycle's list is empty. Callers guarantee at least one event is pending.
func (e *Engine) later() uint64 {
	if e.bucketed > 0 {
		return e.now + e.nextOccupiedDelta()
	}
	// All in-window lists are empty, so the earliest event sits at the
	// top of the overflow heap (its when is >= now+numBuckets).
	return e.overflow[0].when
}

// nextOccupiedDelta returns the distance in cycles from now to the nearest
// occupied list, scanning the occupancy bitmap circularly. Listed events
// always lie within [now, now+numBuckets) and the current cycle's bit is
// clear once its list is, so the circular distance is exact, never
// ambiguous.
func (e *Engine) nextOccupiedDelta() uint64 {
	start := int((e.now + 1) & bucketMask)
	w := start >> 6
	word := e.occupied[w] &^ (1<<uint(start&63) - 1)
	for {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			d := (i - int(e.now&bucketMask) + numBuckets) & bucketMask
			return uint64(d)
		}
		w = (w + 1) & (wordCount - 1)
		word = e.occupied[w]
	}
}

// pullOverflow moves overflow events that now fall inside the calendar
// window onto their lists. The heap pops in (when, seq) order and any
// event scheduled directly into a window list carries a later seq, so
// list append order remains global (when, seq) order.
func (e *Engine) pullOverflow() {
	for len(e.overflow) > 0 && e.overflow[0].when-e.now < numBuckets {
		ev := e.popOverflow()
		e.at(ev.when, ev.h, ev.arg)
	}
}

// NextEvent returns the cycle of the earliest pending event and whether
// one exists. The partitioned runner uses it to open each conservative
// window. It returns the engine's hint, scanning (and re-caching the
// hint) only after a Step, so like scheduling it writes engine state.
func (e *Engine) NextEvent() (uint64, bool) {
	if e.Pending() == 0 {
		return 0, false
	}
	if !e.hinted {
		e.hint, e.hinted = e.scan(), true
	}
	return e.hint, true
}

// scan finds the earliest pending event without the hint. At least one
// event is pending.
func (e *Engine) scan() uint64 {
	if e.head[e.now&bucketMask] != 0 {
		return e.now
	}
	return e.later()
}

// Run executes events until the queue is empty and returns the final cycle.
func (e *Engine) Run() uint64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with when <= limit. Events beyond the limit stay
// queued. It returns the engine's clock, which is advanced to limit if the
// queue drained or the next event is past the limit. When the hint already
// places the next event past the limit, it moves the clock without a scan.
func (e *Engine) RunUntil(limit uint64) uint64 {
	if limit < e.now {
		return e.now
	}
	if !e.hinted || e.hint <= limit {
		e.hinted = false // a panicking handler leaves no stale hint behind
		e.hint = e.drain(limit)
		e.hinted = true
	}
	if e.now < limit {
		// Jumping the clock moves the calendar window: the current cycle's
		// list is empty, so only the overflow heap must refill the window
		// for the invariant to hold at the new time.
		e.now = limit
		e.pullOverflow()
	}
	return e.now
}

// drain fires every event due at or before limit (>= now), one cycle's
// list at a time, with one occupancy scan per clock advance, and returns
// the cycle of the next pending event (noEvent if none). The clock stops
// at the last cycle drained. A zero-delay event scheduled while its list
// drains is appended to the same list and fires in the same pass.
func (e *Engine) drain(limit uint64) uint64 {
	for {
		i := int(e.now & bucketMask)
		for e.head[i] != 0 {
			h, arg := e.pop(i)
			h.Handle(arg)
		}
		e.occupied[i>>6] &^= 1 << uint(i&63)
		if e.Pending() == 0 {
			return noEvent
		}
		next := e.later()
		if next > limit {
			return next
		}
		e.now = next
		e.pullOverflow()
	}
}

// ---------------------------------------------------------------------------
// Typed overflow min-heap on (when, seq). Hand-rolled instead of
// container/heap so pushes and pops move concrete events — no interface
// boxing, no per-operation allocation.

func (e *Engine) less(i, j int) bool {
	a, b := &e.overflow[i], &e.overflow[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) pushOverflow(ev event) {
	e.overflow = append(e.overflow, ev)
	i := len(e.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.overflow[i], e.overflow[parent] = e.overflow[parent], e.overflow[i]
		i = parent
	}
}

func (e *Engine) popOverflow() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the handler for GC
	e.overflow = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && e.less(l, smallest) {
			smallest = l
		}
		if r < n && e.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}
