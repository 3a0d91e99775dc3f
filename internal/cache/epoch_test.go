package cache

import (
	"math/rand"
	"testing"

	"vcache/internal/memory"
)

// scanInvalidate is the reference model of the epoch-based bulk
// invalidations: it walks every set and invalidates each live line of asid
// (every live line when all is set) one by one through OnEvict, counting
// what it drops instead of trusting the residency counters.
func scanInvalidate(c *Cache, asid memory.ASID, all bool) int {
	n := 0
	for i := 0; i < c.sets.Slots(); i++ {
		if c.sets.Live(i) && (all || c.sets.ASID(i) == uint16(asid)) {
			c.stats.Invalidated++
			c.evict(i)
			n++
		}
	}
	return n
}

// TestLazyEagerCacheParityFuzz drives one random op stream into two
// caches: the lazy one bulk-invalidates through the epoch path, the eager
// one through the scan reference model. The observable surface —
// residency, dirty count, per-ASID residency, probes, stats — must stay
// equal.
func TestLazyEagerCacheParityFuzz(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 64, Assoc: 4, Policy: WriteBack}
	lazy := New(cfg)
	eager := New(cfg)
	rng := rand.New(rand.NewSource(23))
	addr := func() uint64 { return uint64(rng.Intn(256)) * 64 }
	for op := 0; op < 6000; op++ {
		asid := memory.ASID(1 + rng.Intn(3))
		switch rng.Intn(12) {
		case 0:
			if l, e := lazy.InvalidateASID(asid), scanInvalidate(eager, asid, false); l != e {
				t.Fatalf("op %d: InvalidateASID %d vs %d", op, l, e)
			}
		case 1:
			if op%5 == 0 {
				if l, e := lazy.InvalidateAll(), scanInvalidate(eager, 0, true); l != e {
					t.Fatalf("op %d: InvalidateAll %d vs %d", op, l, e)
				}
			}
		case 2:
			a := addr()
			lw, ld := lazy.InvalidateLine(a)
			ew, ed := eager.InvalidateLine(a)
			if lw != ew || ld != ed {
				t.Fatalf("op %d: InvalidateLine(%#x) %v/%v vs %v/%v", op, a, lw, ld, ew, ed)
			}
		case 3:
			page := uint64(rng.Intn(4)) * memory.PageSize
			if l, e := lazy.InvalidatePage(page), eager.InvalidatePage(page); l != e {
				t.Fatalf("op %d: InvalidatePage(%#x) %d vs %d", op, page, l, e)
			}
		case 4:
			a := addr()
			dirty := rng.Intn(2) == 0
			le, lok := lazy.Fill(a, memory.PermRead|memory.PermWrite, asid, dirty)
			ee, eok := eager.Fill(a, memory.PermRead|memory.PermWrite, asid, dirty)
			if lok != eok || (lok && (le.Addr != ee.Addr || le.Dirty != ee.Dirty || le.ASID != ee.ASID)) {
				t.Fatalf("op %d: Fill(%#x) evicted %+v/%v vs %+v/%v", op, a, le, lok, ee, eok)
			}
		default:
			a := addr()
			write := rng.Intn(3) == 0
			ll, lok := lazy.Access(a, write)
			el, eok := eager.Access(a, write)
			if lok != eok || (lok && (ll.Addr != el.Addr || ll.Dirty != el.Dirty)) {
				t.Fatalf("op %d: Access(%#x) %+v/%v vs %+v/%v", op, a, ll, lok, el, eok)
			}
		}
		if lazy.Resident() != eager.Resident() || lazy.DirtyLines() != eager.DirtyLines() {
			t.Fatalf("op %d: residency %d/%d vs %d/%d",
				op, lazy.Resident(), lazy.DirtyLines(), eager.Resident(), eager.DirtyLines())
		}
		for a := memory.ASID(1); a <= 3; a++ {
			ln, ld := lazy.ASIDResident(a)
			en, ed := eager.ASIDResident(a)
			if ln != en || ld != ed {
				t.Fatalf("op %d: ASIDResident(%d) %d/%d vs %d/%d", op, a, ln, ld, en, ed)
			}
		}
	}
	if lazy.Stats() != eager.Stats() {
		t.Fatalf("stats diverged\nlazy:  %+v\neager: %+v", lazy.Stats(), eager.Stats())
	}
}

// TestCacheGenerationWraparound forces the generation counter across its
// ceiling: normalize must rewind live lines without changing visibility.
func TestCacheGenerationWraparound(t *testing.T) {
	c := New(Config{SizeBytes: 2048, LineBytes: 64, Assoc: 4, Policy: WriteBack})
	c.ep.SetGen(^uint32(0) - 1)
	c.Fill(0x1000, memory.PermRead, 1, false)
	c.Fill(0x2000, memory.PermRead, 2, true)
	c.InvalidateASID(1) // seq -> max
	c.Fill(0x3000, memory.PermRead, 1, false)
	c.InvalidateASID(2) // would wrap: normalize runs first
	if c.ep.Gen() != 1 {
		t.Fatalf("seq after wrap = %d, want 1", c.ep.Gen())
	}
	if c.Probe(0x1000) || c.Probe(0x2000) {
		t.Fatal("invalidated lines visible across the wrap")
	}
	if !c.Probe(0x3000) {
		t.Fatal("live line lost across the wrap")
	}
	if c.Resident() != 1 || c.DirtyLines() != 0 {
		t.Fatalf("residency %d/%d after wrap, want 1/0", c.Resident(), c.DirtyLines())
	}
}
