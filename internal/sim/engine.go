// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine orders events by (cycle, sequence). Components schedule
// callbacks at absolute or relative cycles; the engine runs them in order,
// advancing a global clock. Determinism is guaranteed: events scheduled for
// the same cycle fire in the order they were scheduled.
//
// Internally the engine is a hierarchical calendar queue specialized for
// the near-monotonic cycle deltas a cycle-level simulator produces: events
// within a fixed window of the clock land in per-cycle buckets (append =
// O(1), no comparisons), a bitmap over the buckets finds the next occupied
// cycle with a handful of word scans, and the rare far-future event goes to
// a typed overflow heap that drains into the window as the clock advances.
// Bucket slabs are reused across cycles, so steady-state scheduling
// performs no allocations and no interface boxing — the costs that
// dominated the previous container/heap implementation.
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

// Tracer observes engine activity: Fired is called for every event, with
// the cycle it fires at, the handler receiving it, and its argument, just
// before the handler runs. Tracers are for observability tooling (event
// tracing, event-rate profiling); they must not schedule or mutate engine
// state. With no tracer installed the hook is a single nil check on the
// firing path — no allocation, no interface dispatch.
type Tracer interface {
	Fired(cycle uint64, h Handler, arg uint64)
}

// bucketEvent is an in-window queue entry. Its cycle is implied by the
// bucket holding it and its FIFO rank by its position, so only the handler
// and argument are stored — 24 bytes moved per schedule/fire.
type bucketEvent struct {
	h   Handler
	arg uint64
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
)

// Engine is a discrete-event simulator clocked in cycles.
// The zero value is ready to use.
type Engine struct {
	buckets  [numBuckets][]bucketEvent // per-cycle FIFO slabs for [now, now+numBuckets)
	occupied [wordCount]uint64         // bit i set <=> buckets[i] holds unconsumed events
	cur      int                       // read cursor into the current cycle's bucket
	bucketed int                       // unconsumed events resident in buckets
	overflow []event                   // min-heap on (when, seq) for events past the window

	now   uint64
	seq   uint64
	fired uint64

	tracer Tracer
}

// New returns a fresh engine at cycle 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation cycle.
func (e *Engine) Now() uint64 { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetTracer installs (or, with nil, removes) the engine's event tracer.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

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
	if when-e.now < numBuckets {
		i := int(when & bucketMask)
		e.buckets[i] = append(e.buckets[i], bucketEvent{h: h, arg: arg})
		e.occupied[i>>6] |= 1 << uint(i&63)
		e.bucketed++
		return
	}
	// seq is only assigned on the overflow path: bucketed events get their
	// FIFO rank from append order, and pullOverflow drains the heap before
	// any same-cycle direct append can happen, so relative order among
	// overflow entries is all the tie-break must preserve.
	e.pushOverflow(event{h: h, arg: arg, when: when, seq: e.seq})
	e.seq++
}

// Step runs the single next event, advancing the clock to its cycle.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	i := int(e.now & bucketMask)
	b := &e.buckets[i]
	if e.cur >= len(*b) {
		// Current cycle fully consumed: recycle its slab and move on.
		*b = (*b)[:0]
		e.cur = 0
		e.occupied[i>>6] &^= 1 << uint(i&63)
		if e.bucketed == 0 && len(e.overflow) == 0 {
			return false
		}
		e.advance()
		i = int(e.now & bucketMask)
		b = &e.buckets[i]
	}
	ev := (*b)[e.cur]
	(*b)[e.cur] = bucketEvent{} // release the handler for GC
	e.cur++
	e.bucketed--
	e.fired++
	if e.tracer != nil {
		e.tracer.Fired(e.now, ev.h, ev.arg)
	}
	ev.h.Handle(ev.arg)
	return true
}

// advance moves the clock to the next cycle holding an event and refills
// the window from the overflow heap. Callers guarantee at least one event
// is pending and the current bucket is drained.
func (e *Engine) advance() {
	if e.bucketed > 0 {
		e.now += e.nextOccupiedDelta()
	} else {
		// All in-window buckets are empty, so the earliest event sits at
		// the top of the overflow heap (its when is >= now+numBuckets).
		e.now = e.overflow[0].when
	}
	e.pullOverflow()
}

// nextOccupiedDelta returns the distance in cycles from now to the nearest
// occupied bucket, scanning the occupancy bitmap circularly. Bucketed
// events always lie within (now, now+numBuckets), so the circular distance
// is exact, never ambiguous.
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
// window into their buckets. The heap pops in (when, seq) order and any
// event scheduled directly into a window bucket carries a later seq, so
// bucket append order remains global (when, seq) order.
func (e *Engine) pullOverflow() {
	for len(e.overflow) > 0 && e.overflow[0].when-e.now < numBuckets {
		ev := e.popOverflow()
		i := int(ev.when & bucketMask)
		e.buckets[i] = append(e.buckets[i], bucketEvent{h: ev.h, arg: ev.arg})
		e.occupied[i>>6] |= 1 << uint(i&63)
		e.bucketed++
	}
}

// NextEvent returns the cycle of the earliest pending event and whether
// one exists. The partitioned runner uses it to compute the global lower
// bound that opens each conservative window.
func (e *Engine) NextEvent() (uint64, bool) { return e.next() }

// next returns the cycle of the earliest pending event.
func (e *Engine) next() (uint64, bool) {
	if e.cur < len(e.buckets[e.now&bucketMask]) {
		return e.now, true
	}
	if e.bucketed > 0 {
		return e.now + e.nextOccupiedDelta(), true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, true
	}
	return 0, false
}

// Run executes events until the queue is empty and returns the final cycle.
func (e *Engine) Run() uint64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with when <= limit. Events beyond the limit stay
// queued. It returns the engine's clock, which is advanced to limit if the
// queue drained or the next event is past the limit.
func (e *Engine) RunUntil(limit uint64) uint64 {
	for {
		when, ok := e.next()
		if !ok || when > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		// Jumping the clock moves the calendar window: retire the current
		// (fully consumed) bucket's cursor and refill from overflow so the
		// window invariant holds at the new time.
		i := int(e.now & bucketMask)
		e.buckets[i] = e.buckets[i][:0]
		e.cur = 0
		e.occupied[i>>6] &^= 1 << uint(i&63)
		e.now = limit
		e.pullOverflow()
	}
	return e.now
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
