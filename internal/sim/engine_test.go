package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same cycle: FIFO
	end := e.Run()
	if end != 10 {
		t.Fatalf("final cycle = %d, want 10", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []uint64
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(2, func() { hits = append(hits, e.Now()) })
		e.Schedule(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 3 || hits[0] != 1 || hits[1] != 1 || hits[2] != 3 {
		t.Fatalf("hits = %v, want [1 1 3]", hits)
	}
}

func TestEngineZeroDelaySameCycle(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(3, func() {
		e.Schedule(0, func() {
			if e.Now() != 3 {
				t.Errorf("zero-delay event ran at %d, want 3", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestEngineAtClampsPast(t *testing.T) {
	e := New()
	var at uint64
	e.Schedule(10, func() {
		e.At(5, func() { at = e.Now() }) // in the past: clamp to now
	})
	e.Run()
	if at != 10 {
		t.Fatalf("clamped event ran at %d, want 10", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := uint64(1); i <= 10; i++ {
		e.Schedule(i*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events by cycle 50, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var seen []uint64
		for _, d := range delays {
			e.Schedule(uint64(d), func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerialization(t *testing.T) {
	e := New()
	s := NewBandwidthServer(e, 1)
	// Three requests in the same cycle: slots 0, 1, 2.
	slots := []uint64{s.Admit(), s.Admit(), s.Admit()}
	for i, want := range []uint64{0, 1, 2} {
		if slots[i] != want {
			t.Fatalf("slot[%d] = %d, want %d", i, slots[i], want)
		}
	}
	if s.QueueDelay != 3 { // 0 + 1 + 2
		t.Fatalf("QueueDelay = %d, want 3", s.QueueDelay)
	}
	if s.MaxDelay != 2 {
		t.Fatalf("MaxDelay = %d, want 2", s.MaxDelay)
	}
}

func TestServerMultiPortAndIdleCatchup(t *testing.T) {
	e := New()
	s := NewBandwidthServer(e, 2)
	if a, b, c := s.Admit(), s.Admit(), s.Admit(); a != 0 || b != 0 || c != 1 {
		t.Fatalf("got slots %d,%d,%d; want 0,0,1", a, b, c)
	}
	// Advance time far past the backlog; server must not admit in the past.
	e.Schedule(100, func() {
		if got := s.Admit(); got != 100 {
			t.Errorf("slot after idle = %d, want 100", got)
		}
	})
	e.Run()
}

func TestServerUnlimited(t *testing.T) {
	e := New()
	s := NewBandwidthServer(e, 0)
	for i := 0; i < 10; i++ {
		if got := s.Admit(); got != 0 {
			t.Fatalf("unlimited server delayed a request to %d", got)
		}
	}
	if s.QueueDelay != 0 {
		t.Fatalf("QueueDelay = %d, want 0", s.QueueDelay)
	}
}

// Property: with perCycle=k, the admissions of one cycle take their slots
// in order, k per cycle: on an idle server the i-th lands at now + i/k, and
// QueueDelay sums the waits. Each batch arrives after the one before it
// has drained, a cycle or more after its last slot.
func TestServerCapacityProperty(t *testing.T) {
	f := func(batches []uint8, k uint8, gap uint8) bool {
		if k == 0 {
			k = 1
		}
		e := New()
		s := NewBandwidthServer(e, int(k))
		var wait uint64
		for b, n := range batches {
			now := e.Now()
			for i := 0; i < int(n); i++ {
				want := now + uint64(i/int(k))
				if got := s.Admit(); got != want {
					t.Logf("k=%d: batch %d at cycle %d: admission %d at %d, want %d", k, b, now, i, got, want)
					return false
				}
				wait += want - now
			}
			e.At(now+s.Backlog()+1+uint64(gap%4), func() {})
			e.Run()
		}
		if s.QueueDelay != wait {
			t.Logf("k=%d: QueueDelay %d, want %d", k, s.QueueDelay, wait)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestServerBacklog(t *testing.T) {
	e := New()
	s := NewBandwidthServer(e, 1)
	for i := 0; i < 5; i++ {
		s.Admit()
	}
	if got := s.Backlog(); got != 5 {
		t.Fatalf("Backlog = %d, want 5", got)
	}
}
