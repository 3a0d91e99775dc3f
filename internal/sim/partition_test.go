package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestPartitionedWindowAccounting checks the observability counters: at
// least one window per run, and every cross send counted exactly once.
func TestPartitionedWindowAccounting(t *testing.T) {
	eng := New()
	p := NewPartitioned(eng, 2, 10)
	delivered := 0
	eng.Schedule(0, func() {
		p.SendEvent(0, 10, Func(func() { delivered++ }), 0)
		p.SendEvent(0, 15, Func(func() { delivered++ }), 0)
	})
	p.Run(nil)
	if delivered != 2 || p.Crossings() != 2 {
		t.Fatalf("delivered %d, crossings %d (want 2, 2)", delivered, p.Crossings())
	}
	if p.Windows() == 0 {
		t.Fatal("no windows executed")
	}
	if eng.Now() < 15 {
		t.Fatalf("engine stopped at %d, want >= 15", eng.Now())
	}
}

// TestPartitionedOnWindowStops: a false return from onWindow halts the
// run at that barrier.
func TestPartitionedOnWindowStops(t *testing.T) {
	eng := New()
	p := NewPartitioned(eng, 4, 10)
	var tick func()
	fired := 0
	tick = func() { fired++; eng.Schedule(5, tick) }
	eng.Schedule(0, tick)
	windows := 0
	p.Run(func(uint64) bool { windows++; return windows < 3 })
	if windows != 3 {
		t.Fatalf("onWindow ran %d times, want 3", windows)
	}
}

// TestPartitionedWorkerPanicPropagates: a panic inside an event handler
// surfaces from Run.
func TestPartitionedWorkerPanicPropagates(t *testing.T) {
	eng := New()
	p := NewPartitioned(eng, 3, 10)
	eng.Schedule(4, func() { panic("boom") })
	var tick func()
	tick = func() { eng.Schedule(1, tick) }
	eng.Schedule(0, tick)
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	p.Run(func(limit uint64) bool { return limit < 1000 })
}

// TestPartitionedRerun: one runner drives several runs back to back; every
// run resumes from the clock the previous one left behind, and the window
// and crossing counts accumulate.
func TestPartitionedRerun(t *testing.T) {
	eng := New()
	p := NewPartitioned(eng, 3, 10)
	var arrivals []uint64
	var windows uint64
	for run := 0; run < 3; run++ {
		start := eng.Now()
		eng.Schedule(0, func() {
			p.SendEvent(0, 10, Func(func() { arrivals = append(arrivals, eng.Now()) }), 0)
		})
		p.Run(nil)
		if n := len(arrivals); n == 0 || arrivals[n-1] != start+10 {
			t.Fatalf("run %d: arrivals %v, want last at %d", run, arrivals, start+10)
		}
		if p.Windows() <= windows {
			t.Fatalf("run %d: window count did not accumulate", run)
		}
		windows = p.Windows()
	}
	if p.Crossings() != 3 {
		t.Fatalf("crossings = %d, want 3", p.Crossings())
	}
}

// refPartitioned is the model the one-engine runner must match: the
// window loop written from its documented rules over one refEngine per
// partition. A window opens at the minimum next event, every engine with
// pending events runs to w+L-1 (an idle engine keeps its clock), and the
// outboxes merge at the barrier in source order.
type refPartitioned struct {
	engines   []*refEngine
	lookahead uint64
	outbox    [][]refMsg
	windows   uint64
	crossings uint64
}

type refMsg struct {
	when uint64
	dst  int
	fn   func()
}

func (p *refPartitioned) send(src, dst int, delay uint64, fn func()) {
	p.outbox[src] = append(p.outbox[src], refMsg{when: p.engines[src].Now() + delay, dst: dst, fn: fn})
}

// clock returns the furthest partition clock.
func (p *refPartitioned) clock() uint64 {
	var max uint64
	for _, e := range p.engines {
		if n := e.Now(); n > max {
			max = n
		}
	}
	return max
}

func (p *refPartitioned) run(onWindow func(limit uint64) bool) {
	for {
		for src, ob := range p.outbox {
			for _, m := range ob {
				p.engines[m.dst].At(m.when, m.fn)
			}
			p.crossings += uint64(len(ob))
			p.outbox[src] = nil
		}
		var w uint64
		ok := false
		for _, e := range p.engines {
			if next, has := e.NextEvent(); has && (!ok || next < w) {
				w, ok = next, true
			}
		}
		if !ok {
			return
		}
		limit := w + p.lookahead - 1
		p.windows++
		for _, e := range p.engines {
			if e.Pending() > 0 {
				e.RunUntil(limit)
			}
		}
		if !onWindow(limit) {
			return
		}
	}
}

// windowFabric is what the random cross-partition workload needs from a
// runner: a partition's clock, local scheduling and cross-partition sends.
type windowFabric interface {
	engine(part int) engineAPI
	send(src, dst int, delay uint64, fn func())
}

// realFabric places every partition on the runner's one engine; the
// destination of a send lives in its event.
type realFabric struct{ p *Partitioned }

func (f realFabric) engine(int) engineAPI { return f.p.eng }
func (f realFabric) send(src, _ int, delay uint64, fn func()) {
	f.p.SendEvent(src, delay, Func(fn), 0)
}

type refFabric struct{ p *refPartitioned }

func (f refFabric) engine(part int) engineAPI                  { return f.p.engines[part] }
func (f refFabric) send(src, dst int, delay uint64, fn func()) { f.p.send(src, dst, delay, fn) }

// windowLoad is a random cross-partition workload. Each partition draws
// from its own stream in its own firing order, so the load is a pure
// function of the seed and the schedule. Local follow-ups mix zero, near,
// overflow-range and far delays, and some events schedule nothing, so
// partitions fall idle and wait for mail behind the others' clocks.
type windowLoad struct {
	f      windowFabric
	la     uint64
	rngs   []*rand.Rand
	budget []int
	logs   [][]uint64
}

func newWindowLoad(f windowFabric, parts int, la uint64, seed int64) *windowLoad {
	l := &windowLoad{f: f, la: la, logs: make([][]uint64, parts)}
	for i := 0; i < parts; i++ {
		l.rngs = append(l.rngs, rand.New(rand.NewSource(seed+int64(i))))
		l.budget = append(l.budget, 300)
	}
	return l
}

// event returns partition part's event tagged tag.
func (l *windowLoad) event(part int, tag uint64) func() {
	return func() {
		e := l.f.engine(part)
		l.logs[part] = append(l.logs[part], e.Now()<<20|tag)
		if l.budget[part] == 0 {
			return
		}
		l.budget[part]--
		r := l.rngs[part].Uint64()
		next := (tag + 1) & 0xfffff
		switch r % 8 {
		case 0: // falls idle
		case 1:
			e.Schedule(0, l.event(part, next))
		case 2:
			e.Schedule(numBuckets+(r>>8)%3000, l.event(part, next))
		default:
			e.Schedule((r>>8)%40, l.event(part, next))
		}
		if r>>20%3 == 0 {
			dst := int(r>>24) % len(l.logs)
			delay := l.la + (r>>32)%50
			if r>>40%8 == 0 {
				delay += 2 * numBuckets
			}
			l.f.send(part, dst, delay, l.event(dst, next|1<<19))
		}
	}
}

// barrierLog records every barrier: its limit and the clock there (the
// one engine's, or the reference's furthest).
func barrierLog(clock func() uint64, stopAfter int, log *[]uint64) func(uint64) bool {
	n := 0
	return func(limit uint64) bool {
		*log = append(*log, limit, clock())
		n++
		return n < stopAfter
	}
}

// checkWindowDifferential runs one random cross-partition load on the
// one-engine Partitioned and on refPartitioned. The runs stop at random
// barriers, where events are scheduled from outside the loop (present,
// near and far, never before the furthest reference clock: a launch
// starts no partition in another's past) before the next run resumes. The
// per-partition firing logs, the barrier limits and clocks, and the
// window and crossing counts must agree. It returns the crossing count.
func checkWindowDifferential(t *testing.T, seed int64, parts int, la uint64, rounds int) uint64 {
	t.Helper()
	eng := New()
	if seed%2 != 0 {
		eng = &Engine{} // the zero value must serve too
	}
	refs := make([]*refEngine, parts)
	for i := range refs {
		refs[i] = &refEngine{}
	}
	p := NewPartitioned(eng, parts, la)
	rp := &refPartitioned{engines: refs, lookahead: la, outbox: make([][]refMsg, parts)}
	real := newWindowLoad(realFabric{p}, parts, la, seed)
	ref := newWindowLoad(refFabric{rp}, parts, la, seed)
	for i := 0; i < parts; i++ {
		eng.Schedule(uint64(i*3), real.event(i, 0))
		refs[i].Schedule(uint64(i*3), ref.event(i, 0))
	}
	outside := rand.New(rand.NewSource(seed * 100))
	var gotBarriers, wantBarriers []uint64
	for round := 0; round < rounds; round++ {
		stop := 1 + outside.Intn(60)
		p.Run(barrierLog(eng.Now, stop, &gotBarriers))
		rp.run(barrierLog(rp.clock, stop, &wantBarriers))
		part := outside.Intn(parts)
		when := rp.clock()
		switch outside.Intn(3) {
		case 0:
		case 1:
			when += uint64(outside.Intn(40))
		default:
			when += numBuckets + uint64(outside.Intn(4000))
		}
		tag := uint64(round)<<12 | 1<<18
		eng.At(when, real.event(part, tag))
		refs[part].At(when, ref.event(part, tag))
	}
	// The load is finite: a bound on the last run's windows turns a
	// runner that never drains into a failure, not a hang.
	const maxWindows = 100000
	p.Run(barrierLog(eng.Now, maxWindows, &gotBarriers))
	rp.run(barrierLog(rp.clock, maxWindows, &wantBarriers))

	name := fmt.Sprintf("seed=%d parts=%d lookahead=%d", seed, parts, la)
	if eng.Pending() != 0 {
		t.Fatalf("%s: engine did not drain: %d pending", name, eng.Pending())
	}
	for i := range refs {
		if refs[i].Pending() != 0 {
			t.Fatalf("%s: reference partition %d did not drain: %d pending", name, i, refs[i].Pending())
		}
	}
	if !reflect.DeepEqual(real.logs, ref.logs) {
		t.Fatalf("%s: per-partition firing logs diverge from the reference", name)
	}
	if !reflect.DeepEqual(gotBarriers, wantBarriers) {
		t.Fatalf("%s: barrier limits or clocks diverge from the reference (%d vs %d entries)", name, len(gotBarriers), len(wantBarriers))
	}
	if p.Windows() != rp.windows || p.Crossings() != rp.crossings {
		t.Fatalf("%s: windows/crossings %d/%d, reference %d/%d", name, p.Windows(), p.Crossings(), rp.windows, rp.crossings)
	}
	return p.Crossings()
}

// TestPartitionedMatchesReference checks the one-engine runner against
// the one-engine-per-partition reference on fixed seeds.
func TestPartitionedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		if checkWindowDifferential(t, seed, 5, 10, 12) == 0 {
			t.Fatalf("seed=%d: the load sent no cross-partition traffic", seed)
		}
	}
}

// FuzzPartitionedDifferential checks the one-engine runner against the
// one-engine-per-partition reference over a fuzzed seed, partition count
// (1-8) and lookahead (1-20).
func FuzzPartitionedDifferential(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(9))
	f.Add(int64(2), uint8(0), uint8(0))
	f.Add(int64(7), uint8(7), uint8(19))
	f.Add(int64(-3), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, parts, la uint8) {
		checkWindowDifferential(t, seed, 1+int(parts%8), 1+uint64(la%20), 6)
	})
}
