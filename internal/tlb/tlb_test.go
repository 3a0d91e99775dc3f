package tlb

import (
	"testing"
	"testing/quick"

	"vcache/internal/memory"
)

func TestLookupInsert(t *testing.T) {
	tb := New(Config{Entries: 4})
	if _, ok := tb.Lookup(1, 100); ok {
		t.Fatal("hit in empty TLB")
	}
	tb.Insert(1, 100, 555, memory.PermRead)
	e, ok := tb.Lookup(1, 100)
	if !ok || e.PPN != 555 || e.Perm != memory.PermRead {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	// Different ASID, same VPN: miss (homonym protection).
	if _, ok := tb.Lookup(2, 100); ok {
		t.Fatal("homonym hit across ASIDs")
	}
	s := tb.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	tb := New(Config{Entries: 2}) // fully associative, 2 entries
	tb.Insert(1, 10, 10, memory.PermRead)
	tb.Insert(1, 20, 20, memory.PermRead)
	tb.Lookup(1, 10) // refresh 10; 20 becomes LRU
	tb.Insert(1, 30, 30, memory.PermRead)
	if _, ok := tb.Lookup(1, 20); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := tb.Lookup(1, 10); !ok {
		t.Fatal("MRU entry evicted")
	}
	if tb.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Stats().Evictions)
	}
}

func TestSetAssociative(t *testing.T) {
	tb := New(Config{Entries: 8, Assoc: 2}) // 4 sets of 2
	// Fill one set with conflicting VPNs (same set index mod 4).
	tb.Insert(1, 0, 1, memory.PermRead)
	tb.Insert(1, 4, 2, memory.PermRead)
	tb.Insert(1, 8, 3, memory.PermRead) // evicts VPN 0
	if _, ok := tb.Lookup(1, 0); ok {
		t.Fatal("conflict victim survived")
	}
	if _, ok := tb.Lookup(1, 4); !ok {
		t.Fatal("non-victim evicted")
	}
	// Other sets untouched.
	tb.Insert(1, 1, 9, memory.PermRead)
	if _, ok := tb.Lookup(1, 1); !ok {
		t.Fatal("cross-set interference")
	}
}

func TestInfiniteTLBNeverEvicts(t *testing.T) {
	tb := New(Config{Entries: 0})
	for i := 0; i < 10000; i++ {
		tb.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
	}
	if tb.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000", tb.Len())
	}
	if tb.Stats().Evictions != 0 {
		t.Fatal("infinite TLB evicted")
	}
	for i := 0; i < 10000; i++ {
		if _, ok := tb.Lookup(1, memory.VPN(i)); !ok {
			t.Fatalf("VPN %d missing", i)
		}
	}
}

func TestInvalidatePage(t *testing.T) {
	for _, entries := range []int{0, 8} {
		tb := New(Config{Entries: entries})
		tb.Insert(1, 7, 70, memory.PermRead)
		tb.Insert(2, 7, 71, memory.PermRead)
		if !tb.InvalidatePage(1, 7) {
			t.Fatal("InvalidatePage missed resident entry")
		}
		if tb.InvalidatePage(1, 7) {
			t.Fatal("InvalidatePage hit twice")
		}
		if _, ok := tb.Lookup(2, 7); !ok {
			t.Fatal("shootdown leaked across ASIDs")
		}
	}
}

func TestInvalidateAllAndASID(t *testing.T) {
	for _, entries := range []int{0, 16} {
		tb := New(Config{Entries: entries})
		fired := 0
		tb.OnEvict = func(Entry, uint64) { fired++ }
		for i := 0; i < 4; i++ {
			tb.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
			tb.Insert(2, memory.VPN(i), memory.PPN(i), memory.PermRead)
		}
		tb.InvalidateASID(1)
		if tb.Len() != 4 {
			t.Fatalf("Len after ASID flush = %d, want 4", tb.Len())
		}
		tb.InvalidateAll()
		if tb.Len() != 0 {
			t.Fatalf("Len after full flush = %d, want 0", tb.Len())
		}
		if fired != 0 {
			t.Fatalf("entries=%d: bulk invalidation fired OnEvict %d times, want 0", entries, fired)
		}
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	tb := New(Config{Entries: 4})
	tb.Insert(1, 5, 50, memory.PermRead)
	before := tb.Stats()
	if !tb.Probe(1, 5) || tb.Probe(1, 6) {
		t.Fatal("Probe gave wrong answer")
	}
	if tb.Stats() != before {
		t.Fatal("Probe disturbed stats")
	}
}

func TestLifetimeHook(t *testing.T) {
	var clock uint64
	var lifetimes []uint64
	tb := New(Config{Entries: 1})
	tb.Clock = func() uint64 { return clock }
	tb.OnEvict = func(e Entry, life uint64) { lifetimes = append(lifetimes, life) }
	clock = 100
	tb.Insert(1, 1, 1, memory.PermRead)
	clock = 350
	tb.Insert(1, 2, 2, memory.PermRead) // evicts entry inserted at 100
	if len(lifetimes) != 1 || lifetimes[0] != 250 {
		t.Fatalf("lifetimes = %v, want [250]", lifetimes)
	}
}

func TestReinsertRefreshes(t *testing.T) {
	tb := New(Config{Entries: 2})
	tb.Insert(1, 1, 1, memory.PermRead)
	tb.Insert(1, 1, 1, memory.PermRead|memory.PermWrite) // same key: update
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (reinsert duplicated)", tb.Len())
	}
	e, _ := tb.Lookup(1, 1)
	if e.Perm != memory.PermRead|memory.PermWrite {
		t.Fatal("reinsert did not update permissions")
	}
}

// Property: a finite TLB never holds more than its configured entries, and
// most-recently-inserted entries are always resident.
func TestCapacityProperty(t *testing.T) {
	f := func(vpns []uint16) bool {
		tb := New(Config{Entries: 16, Assoc: 4})
		for _, v := range vpns {
			tb.Insert(1, memory.VPN(v), memory.PPN(v), memory.PermRead)
			if !tb.Probe(1, memory.VPN(v)) {
				return false // just-inserted entry must be resident
			}
		}
		return tb.Len() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hit+miss counts equal lookups; hits return the inserted PPN.
func TestConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := New(Config{Entries: 8})
		shadow := make(map[memory.VPN]memory.PPN)
		lookups := uint64(0)
		for _, op := range ops {
			vpn := memory.VPN(op % 64)
			if op%3 == 0 {
				tb.Insert(1, vpn, memory.PPN(op), memory.PermRead)
				shadow[vpn] = memory.PPN(op)
			} else {
				lookups++
				e, ok := tb.Lookup(1, vpn)
				if ok && e.PPN != shadow[vpn] {
					return false // stale translation
				}
			}
		}
		s := tb.Stats()
		return s.Hits+s.Misses == lookups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
