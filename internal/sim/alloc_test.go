package sim

import "testing"

type countHandler struct{ n uint64 }

func (h *countHandler) Handle(arg uint64) { h.n += arg }

// TestScheduleSteadyStateZeroAlloc asserts that once the calendar queue's
// node pool has grown to the peak pending count, scheduling and firing
// events allocates nothing: a fired event's node goes on the free list and
// the next schedule takes it back. This holds for both the Handler form
// and the plain func form, and for the overflow heap.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	h := &countHandler{}

	// Warm up: grow the node pool and the overflow heap to steady state.
	for i := 0; i < 4096; i++ {
		e.ScheduleEvent(uint64(i%300), h, 1)
		e.ScheduleEvent(uint64(1500+i%2000), h, 1) // overflow path
	}
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(64, h, 1)
		e.Step()
	}); avg != 0 {
		t.Fatalf("ScheduleEvent steady state: %v allocs/op, want 0", avg)
	}

	fn := func() {}
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(64, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("Schedule steady state: %v allocs/op, want 0", avg)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(2000, h, 1) // overflow heap path
		e.Step()
	}); avg != 0 {
		t.Fatalf("ScheduleEvent overflow steady state: %v allocs/op, want 0", avg)
	}
}

// TestFreshEngineAllocsLogarithmic: a fresh engine's queue grows one node
// pool geometrically, so filling it with n pending events spread over
// every cycle of the calendar window costs O(log n) allocations, not one
// per per-cycle list.
func TestFreshEngineAllocsLogarithmic(t *testing.T) {
	h := &countHandler{}
	avg := testing.AllocsPerRun(20, func() {
		var e Engine
		for i := 0; i < 8192; i++ {
			e.ScheduleEvent(uint64(i%numBuckets), h, 1)
		}
		e.RunUntil(numBuckets)
	})
	// append grows a large slice by at least 1.25x, so 8192 nodes take
	// about a dozen growths; one allocation per list would be over 1024.
	if avg > 32 {
		t.Fatalf("a fresh engine with 8192 pending events allocated %v times, want <= 32", avg)
	}
}

// BenchmarkEngineThroughput measures raw scheduler throughput (events/sec)
// on a self-sustaining event chain with mixed near-monotonic delays — the
// pattern the simulator's hot path produces.
func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	h := &countHandler{}
	// Keep a standing population of events so buckets stay warm.
	for i := 0; i < 1024; i++ {
		e.ScheduleEvent(uint64(i%200), h, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(uint64(i&127), h, 1)
		e.Step()
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "events/sec")
	}
}
