package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEvent / refHeap reimplement the engine's previous container/heap
// scheduler as a trusted ordering oracle: a binary heap on (when, seq).
type refEvent struct {
	when uint64
	seq  uint64
	fn   func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)      { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any        { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h refHeap) peekWhen() uint64 { return h[0].when }
func (h refHeap) pending() int     { return len(h) }

// refEngine is the reference scheduler with the same API subset.
type refEngine struct {
	pq    refHeap
	now   uint64
	seq   uint64
	fired uint64
}

func (e *refEngine) Now() uint64   { return e.now }
func (e *refEngine) Fired() uint64 { return e.fired }
func (e *refEngine) Pending() int  { return e.pq.pending() }

func (e *refEngine) Schedule(delay uint64, fn func()) { e.At(e.now+delay, fn) }

func (e *refEngine) At(when uint64, fn func()) {
	if when < e.now {
		when = e.now
	}
	heap.Push(&e.pq, refEvent{when: when, seq: e.seq, fn: fn})
	e.seq++
}

func (e *refEngine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(refEvent)
	e.now = ev.when
	e.fired++
	ev.fn()
	return true
}

func (e *refEngine) Run() uint64 {
	for e.Step() {
	}
	return e.now
}

func (e *refEngine) RunUntil(limit uint64) uint64 {
	for len(e.pq) > 0 && e.pq.peekWhen() <= limit {
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

func (e *refEngine) NextEvent() (uint64, bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq.peekWhen(), true
}

// firing records one observed event execution.
type firing struct {
	id    int
	cycle uint64
}

// TestDifferentialRandomStreams drives the calendar-queue engine and the
// reference heap with identical randomized (delay, chain) streams and
// requires identical firing order — including zero-delay same-cycle FIFO
// semantics — plus matching Pending()/Fired()/Now() at every step.
func TestDifferentialRandomStreams(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		// Pre-draw a shared schedule script so both engines see the same
		// stream. Each root event may chain children with fresh delays,
		// exercising scheduling from inside handlers.
		const roots = 200
		type node struct {
			delay    uint64
			children int
		}
		script := make([]node, 0, roots)
		for i := 0; i < roots; i++ {
			// Mix tight deltas (in-window), zero delays, and far-future
			// jumps that must route through the overflow heap.
			var d uint64
			switch rng.Intn(10) {
			case 0:
				d = 0
			case 1, 2:
				d = uint64(rng.Intn(8))
			case 3:
				d = uint64(2000 + rng.Intn(5000)) // beyond the 1024 window
			default:
				d = uint64(rng.Intn(300))
			}
			script = append(script, node{delay: d, children: rng.Intn(3)})
		}
		childDelay := func(r *rand.Rand) uint64 {
			if r.Intn(4) == 0 {
				return uint64(1500 + r.Intn(3000))
			}
			return uint64(r.Intn(64))
		}

		run := func(schedule func(delay uint64, fn func()), step func() bool) []firing {
			var got []firing
			id := 0
			crng := rand.New(rand.NewSource(int64(7777 + trial)))
			var chain func(myID int, children, depth int)
			chain = func(myID, children, depth int) {
				for c := 0; c < children; c++ {
					cid := id
					id++
					kids := 0
					if depth < 2 {
						kids = crng.Intn(2)
					}
					d := childDelay(crng)
					chain2 := func() { chain(cid, kids, depth+1) }
					schedule(d, func() {
						got = append(got, firing{id: cid, cycle: 0})
						chain2()
					})
				}
			}
			for _, n := range script {
				myID := id
				id++
				n := n
				schedule(n.delay, func() {
					got = append(got, firing{id: myID, cycle: 0})
					chain(myID, n.children, 0)
				})
			}
			for step() {
			}
			return got
		}

		eng := New()
		ref := &refEngine{}

		gotNew := run(eng.Schedule, func() bool {
			fired := eng.Step()
			return fired
		})
		gotRef := run(ref.Schedule, ref.Step)

		if len(gotNew) != len(gotRef) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(gotNew), len(gotRef))
		}
		for i := range gotNew {
			if gotNew[i].id != gotRef[i].id {
				t.Fatalf("trial %d: firing %d: got event %d, reference %d", trial, i, gotNew[i].id, gotRef[i].id)
			}
		}
		if eng.Fired() != ref.Fired() {
			t.Fatalf("trial %d: Fired() = %d, reference %d", trial, eng.Fired(), ref.Fired())
		}
		if eng.Pending() != 0 || ref.Pending() != 0 {
			t.Fatalf("trial %d: queues not drained: %d vs %d", trial, eng.Pending(), ref.Pending())
		}
		if eng.Now() != ref.Now() {
			t.Fatalf("trial %d: final clock %d, reference %d", trial, eng.Now(), ref.Now())
		}
	}
}

// TestDifferentialLockstep steps both engines one event at a time and
// compares Now/Fired/Pending after every step, over a stream that also
// clamps past-scheduling via At.
func TestDifferentialLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	eng := New()
	ref := &refEngine{}

	var orderNew, orderRef []int
	schedulePair := func(when uint64, id int) {
		eng.At(when, func() { orderNew = append(orderNew, id) })
		ref.At(when, func() { orderRef = append(orderRef, id) })
	}
	for i := 0; i < 500; i++ {
		schedulePair(uint64(rng.Intn(4000)), i)
	}
	step := 0
	for {
		a := eng.Step()
		b := ref.Step()
		if a != b {
			t.Fatalf("step %d: Step() = %v, reference %v", step, a, b)
		}
		if !a {
			break
		}
		if eng.Now() != ref.Now() {
			t.Fatalf("step %d: Now() = %d, reference %d", step, eng.Now(), ref.Now())
		}
		if eng.Pending() != ref.Pending() {
			t.Fatalf("step %d: Pending() = %d, reference %d", step, eng.Pending(), ref.Pending())
		}
		if eng.Fired() != ref.Fired() {
			t.Fatalf("step %d: Fired() = %d, reference %d", step, eng.Fired(), ref.Fired())
		}
		step++
	}
	for i := range orderNew {
		if orderNew[i] != orderRef[i] {
			t.Fatalf("firing %d: got %d, reference %d", i, orderNew[i], orderRef[i])
		}
	}
}

// TestDifferentialRunUntil compares RunUntil horizons, including horizons
// that land between events and past the final event.
func TestDifferentialRunUntil(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := New()
	ref := &refEngine{}
	for i := 0; i < 300; i++ {
		d := uint64(rng.Intn(5000))
		eng.Schedule(d, func() {})
		ref.Schedule(d, func() {})
	}
	for _, limit := range []uint64{0, 1, 100, 1023, 1024, 1025, 2500, 4999, 10000} {
		gn := eng.RunUntil(limit)
		gr := ref.RunUntil(limit)
		if gn != gr {
			t.Fatalf("RunUntil(%d) = %d, reference %d", limit, gn, gr)
		}
		if eng.Pending() != ref.Pending() {
			t.Fatalf("RunUntil(%d): Pending() = %d, reference %d", limit, eng.Pending(), ref.Pending())
		}
		if eng.Fired() != ref.Fired() {
			t.Fatalf("RunUntil(%d): Fired() = %d, reference %d", limit, eng.Fired(), ref.Fired())
		}
	}
}

// engineAPI is the surface the differential harnesses drive on both the
// calendar-queue Engine and refEngine.
type engineAPI interface {
	Schedule(delay uint64, fn func())
	At(when uint64, fn func())
	Step() bool
	Run() uint64
	RunUntil(limit uint64) uint64
	Now() uint64
	Pending() int
	Fired() uint64
	NextEvent() (uint64, bool)
}

// splitmix is the SplitMix64 finalizer: a stateless hash that gives every
// event its own deterministic child plan.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fuzzDelay maps two input bytes onto the delay classes the calendar queue
// treats differently: zero (same cycle, appended while its list drains),
// near, in-window, the window edge, the overflow heap and the far future.
func fuzzDelay(class, v byte) uint64 {
	switch class % 8 {
	case 0:
		return 0
	case 1, 2:
		return uint64(v % 8)
	case 3, 4:
		return uint64(v) * 4
	case 5:
		return numBuckets - 4 + uint64(v%8)
	case 6:
		return numBuckets + uint64(v)*37
	default:
		return uint64(v) << 12
	}
}

// fuzzSide is one engine under FuzzEngineDifferential and the log of the
// events it fired. Ids are handed out in scheduling order, so two engines
// that schedule and fire alike hand out the same ids.
type fuzzSide struct {
	eng  engineAPI
	seed uint64
	ids  int
	log  []firing
}

// fuzzEventBudget bounds the events one input may create, and
// fuzzMaxOps the ops it may apply, so every input runs in milliseconds.
const (
	fuzzEventBudget = 4000
	fuzzMaxOps      = 2000
)

// add returns a fresh event: when it fires it logs itself and schedules
// up to two children, drawn from a hash of its id, to depth 3.
func (s *fuzzSide) add(depth int) func() {
	id := s.ids
	s.ids++
	return func() {
		s.log = append(s.log, firing{id: id, cycle: s.eng.Now()})
		r := splitmix(s.seed ^ uint64(id))
		kids := int(r % 3)
		if depth >= 3 {
			kids = 0
		}
		for k := 0; k < kids && s.ids < fuzzEventBudget; k++ {
			r = splitmix(r)
			s.eng.Schedule(fuzzDelay(byte(r>>8), byte(r>>16)), s.add(depth+1))
		}
	}
}

// runEngineOps applies the op stream in data to a zero-value Engine and to
// refEngine in lockstep. Every 3 bytes are one op; after each op the
// firing logs, Now, Pending, Fired and the next event must agree. One op
// Resets the engine and replaces the reference with a new one, which the
// reset engine must then track.
func runEngineOps(t *testing.T, data []byte) {
	var eng Engine
	var seed uint64
	if len(data) > 0 {
		seed = uint64(data[0])
	}
	sides := [2]*fuzzSide{{eng: &eng, seed: seed}, {eng: &refEngine{}, seed: seed}}
	ref := sides[1].eng
	logged := 0 // firings already compared
	if len(data) > 3*fuzzMaxOps {
		data = data[:3*fuzzMaxOps]
	}
	for pos := 0; pos+2 < len(data); pos += 3 {
		op, a, b := data[pos], data[pos+1], data[pos+2]
		now := ref.Now()
		past := now - min(now, uint64(b)) // at or before now
		var res [2]uint64
		for k, s := range sides {
			e := s.eng
			switch op % 7 {
			case 0:
				if s.ids < fuzzEventBudget {
					e.Schedule(fuzzDelay(a, b), s.add(0))
				}
			case 1:
				when := now + fuzzDelay(a>>1, b)
				if a&1 == 0 {
					when = past // clamps to now
				}
				if s.ids < fuzzEventBudget {
					e.At(when, s.add(0))
				}
			case 2:
				for i := 0; i <= int(b%4); i++ {
					if e.Step() {
						res[k]++
					}
				}
			case 3:
				var limit uint64
				switch a % 4 {
				case 0:
					limit = past // includes limit < now
				case 1:
					limit = now + fuzzDelay(a>>2, b)
				case 2: // on or beside the next event
					if next, ok := ref.NextEvent(); ok {
						limit = next + uint64(b%3) - 1
					}
				default:
					limit = now + numBuckets*uint64(b%8) + uint64(b)
				}
				res[k] = e.RunUntil(limit)
			case 4:
				next, ok := e.NextEvent()
				if ok {
					res[k] = next + 1
				}
			case 5:
				switch {
				case a%4 == 0:
					res[k] = e.Run()
				case a%16 == 1:
					if k == 0 {
						eng.Reset()
					} else {
						s.eng = &refEngine{}
						ref = s.eng
					}
				}
			default:
				// A handler that schedules at the current cycle while its
				// own list drains.
				if s.ids < fuzzEventBudget {
					e.Schedule(uint64(b%2), func() {
						s.log = append(s.log, firing{id: -1, cycle: s.eng.Now()})
						if s.ids < fuzzEventBudget {
							s.eng.Schedule(0, s.add(1))
						}
					})
				}
			}
		}
		step := func() string { return fmt.Sprintf("op %d (%d %d %d)", pos/3, op%7, a, b) }
		if res[0] != res[1] {
			t.Fatalf("%s: result %d, reference %d", step(), res[0], res[1])
		}
		got, want := sides[0].log, sides[1].log
		if len(got) != len(want) {
			t.Fatalf("%s: %d events fired, reference %d", step(), len(got), len(want))
		}
		for ; logged < len(got); logged++ {
			if got[logged] != want[logged] {
				t.Fatalf("%s: firing %d is %v, reference %v", step(), logged, got[logged], want[logged])
			}
		}
		checkAgainstRef(t, step, &eng, ref)
	}
}

// checkAgainstRef compares the engine's observable state with the
// reference's. The next event is read without caching it, so the fuzz op
// stream alone decides when the engine's hint is valid; a hint that claims
// to be valid must be exact.
func checkAgainstRef(t *testing.T, step func() string, eng *Engine, ref engineAPI) {
	t.Helper()
	if eng.Now() != ref.Now() || eng.Pending() != ref.Pending() || eng.Fired() != ref.Fired() {
		t.Fatalf("%s: now/pending/fired = %d/%d/%d, reference %d/%d/%d", step(),
			eng.Now(), eng.Pending(), eng.Fired(), ref.Now(), ref.Pending(), ref.Fired())
	}
	want, ok := ref.NextEvent()
	if !ok {
		return
	}
	if got := eng.scan(); got != want {
		t.Fatalf("%s: next event %d, reference %d", step(), got, want)
	}
	if eng.hinted && eng.hint != want {
		t.Fatalf("%s: hint %d, reference next event %d", step(), eng.hint, want)
	}
}

// FuzzEngineDifferential drives a zero-value Engine and refEngine through
// one random op stream: Schedule and At (past clamping, the window edge,
// overflow-range and far-future delays), Step, Run, RunUntil at arbitrary
// horizons (limit < now, exactly at the next event, far jumps), NextEvent,
// Reset with events pending, and handlers that schedule children, some at
// delay zero.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 3, 3, 200, 4, 0, 0})
	f.Add([]byte{1, 6, 9, 0, 7, 3, 3, 1, 5, 3, 0, 0, 2, 0, 3, 3, 2, 1})
	f.Add([]byte{0, 6, 9, 0, 3, 3, 3, 1, 5, 5, 1, 0, 0, 2, 2, 3, 3, 1})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		b := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(runEngineOps)
}
