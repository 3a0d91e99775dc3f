package tlb

import (
	"math/rand"
	"testing"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// TestInvalidateASIDLargePages pins the interaction the lazy path must get
// right: 2MB entries die under their address space's generation mark just
// like 4KB ones, in both finite and infinite modes, and the maintained
// large-entry count stays exact (a stale count would leave Lookup probing
// the 2MB way forever, or never).
func TestInvalidateASIDLargePages(t *testing.T) {
	for _, entries := range []int{0, 64} {
		tb := New(Config{Entries: entries, Assoc: 4})
		base1 := memory.VPN(2 * memory.PagesPerLarge)
		base2 := memory.VPN(4 * memory.PagesPerLarge)
		tb.InsertLarge(1, base1, 0x1000, memory.PermRead)
		tb.Insert(1, 7, 70, memory.PermRead)
		tb.InsertLarge(2, base2, 0x2000, memory.PermRead)
		tb.Insert(2, 9, 90, memory.PermRead)

		if n := tb.InvalidateASID(1); n != 2 {
			t.Fatalf("entries=%d: InvalidateASID(1) = %d, want 2", entries, n)
		}
		if tb.Len() != 2 {
			t.Fatalf("entries=%d: Len = %d, want 2", entries, tb.Len())
		}
		if _, ok := tb.Lookup(1, base1+3); ok {
			t.Fatalf("entries=%d: asid 1 large entry survived its ASID flush", entries)
		}
		if _, ok := tb.Lookup(1, 7); ok {
			t.Fatalf("entries=%d: asid 1 small entry survived its ASID flush", entries)
		}
		if _, ok := tb.Lookup(2, base2+5); !ok {
			t.Fatalf("entries=%d: asid 2 large entry killed by asid 1's flush", entries)
		}
		if _, ok := tb.Lookup(2, 9); !ok {
			t.Fatalf("entries=%d: asid 2 small entry killed by asid 1's flush", entries)
		}

		// Re-inserting after the flush must produce a live entry even though
		// a dead one with the same key may still occupy a slot.
		tb.InsertLarge(1, base1, 0x3000, memory.PermRead)
		e, ok := tb.Lookup(1, base1+1)
		if !ok || e.Frame(base1+1) != 0x3000+1 {
			t.Fatalf("entries=%d: re-inserted large entry wrong: %+v ok=%v", entries, e, ok)
		}
		if tb.Len() != 3 {
			t.Fatalf("entries=%d: Len after reinsert = %d, want 3", entries, tb.Len())
		}
	}
}

// TestGenerationWraparound forces the uint32 generation counter to its
// ceiling and across: normalize must rewind live entries to generation
// zero without changing what is visible.
func TestGenerationWraparound(t *testing.T) {
	for _, entries := range []int{0, 32} {
		tb := New(Config{Entries: entries, Assoc: 4})
		// Park the counter two bumps from the wrap, as ~2^32 bulk
		// invalidations would.
		tb.ep.SetGen(^uint32(0) - 2)
		tb.Insert(1, 1, 10, memory.PermRead)
		tb.Insert(2, 2, 20, memory.PermRead)
		tb.InvalidateASID(1) // seq -> max-1
		tb.Insert(1, 3, 30, memory.PermRead)
		tb.InvalidateASID(2) // seq -> max
		tb.Insert(2, 4, 40, memory.PermRead)
		tb.Insert(3, 5, 50, memory.PermRead)
		// The next generation bump would wrap the counter: this ASID flush
		// (lazy paths always bump when entries die) triggers normalize first.
		tb.InvalidateASID(3)
		if tb.ep.Gen() != 1 {
			t.Fatalf("entries=%d: seq after wrap-triggering flush = %d, want 1", entries, tb.ep.Gen())
		}
		if tb.Len() != 2 {
			t.Fatalf("entries=%d: Len after wrap = %d, want 2", entries, tb.Len())
		}
		for _, k := range []struct {
			asid memory.ASID
			vpn  memory.VPN
			want bool
		}{{1, 1, false}, {2, 2, false}, {1, 3, true}, {2, 4, true}, {3, 5, false}} {
			if _, ok := tb.Lookup(k.asid, k.vpn); ok != k.want {
				t.Fatalf("entries=%d: Lookup(%d,%d) = %v across the wrap, want %v",
					entries, k.asid, k.vpn, ok, k.want)
			}
		}
		tb.InvalidateAll()
		if tb.Len() != 0 {
			t.Fatalf("entries=%d: Len after full flush = %d, want 0", entries, tb.Len())
		}
		// Post-wrap inserts are live under the rewound generations.
		tb.Insert(3, 5, 50, memory.PermRead)
		if _, ok := tb.Lookup(3, 5); !ok {
			t.Fatalf("entries=%d: post-wrap insert not visible", entries)
		}
		if tb.Len() != 1 {
			t.Fatalf("entries=%d: Len = %d, want 1", entries, tb.Len())
		}
	}
}

// scanInvalidate is the reference model of the epoch-based bulk
// invalidations: it walks the structure and evicts every live entry of asid
// (every live entry when all is set) one by one through OnEvict, counting
// what it drops instead of trusting the residency counters.
func scanInvalidate(tb *TLB, asid memory.ASID, all bool) int {
	tb.stats.Shootdowns++
	n := 0
	for _, m := range []*flatmap.Map[Entry]{&tb.inf, &tb.infLarge} {
		for _, k := range m.AppendKeys(nil) {
			if all || flatmap.KeyASID(k) == uint16(asid) {
				tb.dropInf(m, k)
				n++
			}
		}
	}
	for i := 0; i < tb.sets.Slots(); i++ {
		if tb.sets.Live(i) && (all || tb.sets.ASID(i) == uint16(asid)) {
			tb.evict(i)
			n++
		}
	}
	return n
}

// TestLazyEagerTLBParityFuzz drives one random op stream into two TLBs:
// the lazy one bulk-invalidates through the epoch path, the eager one
// through the scan reference model. The observable surface — Len, lookups,
// stats — must stay equal throughout.
func TestLazyEagerTLBParityFuzz(t *testing.T) {
	for _, entries := range []int{0, 64} {
		lazy := New(Config{Entries: entries, Assoc: 4})
		eager := New(Config{Entries: entries, Assoc: 4})
		rng := rand.New(rand.NewSource(7))
		for op := 0; op < 4000; op++ {
			asid := memory.ASID(1 + rng.Intn(3))
			vpn := memory.VPN(rng.Intn(96))
			switch rng.Intn(10) {
			case 0:
				if l, e := lazy.InvalidateASID(asid), scanInvalidate(eager, asid, false); l != e {
					t.Fatalf("entries=%d op %d: InvalidateASID %d vs %d", entries, op, l, e)
				}
			case 1:
				if op%3 == 0 { // full flushes rarer than ASID flushes
					if l, e := lazy.InvalidateAll(), scanInvalidate(eager, 0, true); l != e {
						t.Fatalf("entries=%d op %d: InvalidateAll %d vs %d", entries, op, l, e)
					}
				}
			case 2:
				if l, e := lazy.InvalidatePage(asid, vpn), eager.InvalidatePage(asid, vpn); l != e {
					t.Fatalf("entries=%d op %d: InvalidatePage %v vs %v", entries, op, l, e)
				}
			case 3:
				base := largeBase(vpn)
				lazy.InsertLarge(asid, base, memory.PPN(0x1000*uint64(base+1)), memory.PermRead)
				eager.InsertLarge(asid, base, memory.PPN(0x1000*uint64(base+1)), memory.PermRead)
			case 4:
				// Burst of inserts across a wide VPN range: in infinite mode
				// this drives the flat tables through growth and
				// occupancy-triggered sweeps mid-stream, which must never be
				// observable.
				base := memory.VPN(rng.Intn(1 << 16))
				for i := 0; i < 32; i++ {
					lazy.Insert(asid, base+memory.VPN(i), memory.PPN(base)+memory.PPN(i)+7, memory.PermRead)
					eager.Insert(asid, base+memory.VPN(i), memory.PPN(base)+memory.PPN(i)+7, memory.PermRead)
				}
			case 5:
				if l, e := lazy.Probe(asid, vpn), eager.Probe(asid, vpn); l != e {
					t.Fatalf("entries=%d op %d: Probe(%d,%d) %v vs %v", entries, op, asid, vpn, l, e)
				}
			default:
				if rng.Intn(2) == 0 {
					lazy.Insert(asid, vpn, memory.PPN(vpn)+100, memory.PermRead)
					eager.Insert(asid, vpn, memory.PPN(vpn)+100, memory.PermRead)
				} else {
					le, lok := lazy.Lookup(asid, vpn)
					ee, eok := eager.Lookup(asid, vpn)
					if lok != eok || (lok && le.Frame(vpn) != ee.Frame(vpn)) {
						t.Fatalf("entries=%d op %d: Lookup(%d,%d) diverged: %v/%v vs %v/%v",
							entries, op, asid, vpn, le, lok, ee, eok)
					}
				}
			}
			if lazy.Len() != eager.Len() || lazy.large != eager.large {
				t.Fatalf("entries=%d op %d: Len %d vs %d, large %d vs %d",
					entries, op, lazy.Len(), eager.Len(), lazy.large, eager.large)
			}
		}
		// Evictions can only diverge transiently in finite mode (lazy
		// replacement reclaims dead slots instead of evicting live ones —
		// but parity of the insert/flush stream keeps live sets equal, so
		// totals must match too).
		if lazy.Stats() != eager.Stats() {
			t.Fatalf("entries=%d: stats diverged\nlazy:  %+v\neager: %+v", entries, lazy.Stats(), eager.Stats())
		}
	}
}
