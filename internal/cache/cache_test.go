package cache

import (
	"testing"
	"testing/quick"

	"vcache/internal/memory"
)

func smallCache(policy WritePolicy) *Cache {
	return New(Config{SizeBytes: 1024, LineBytes: 128, Assoc: 2, Policy: policy})
}

func TestAccessMissThenFillThenHit(t *testing.T) {
	c := smallCache(WriteBack)
	if _, hit := c.Access(0x1000, false); hit {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000, memory.PermRead, 1, false)
	l, hit := c.Access(0x1080, false) // different line
	if hit {
		t.Fatal("hit on different line")
	}
	l, hit = c.Access(0x1040, false) // same 128B line as 0x1000
	if !hit {
		t.Fatal("miss on filled line")
	}
	if l.Perm != memory.PermRead || l.ASID != 1 {
		t.Fatalf("line metadata = %+v", l)
	}
	s := c.Stats()
	if s.ReadHits != 1 || s.ReadMisses != 2 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := New(Config{SizeBytes: 256, LineBytes: 128, Assoc: 2, Policy: WriteBack}) // one set, 2 ways
	var evicted []Line
	c.OnEvict = func(l Line) { evicted = append(evicted, l) }
	c.Fill(0x0, memory.PermRead|memory.PermWrite, 1, false)
	c.Access(0x0, true)                      // dirty it (0x0 lru=2)
	c.Fill(0x80, memory.PermRead, 1, false)  // 0x80 lru=3; 0x0 is LRU
	c.Fill(0x100, memory.PermRead, 1, false) // evicts dirty 0x0
	if len(evicted) != 1 || evicted[0].Addr != 0x0 || !evicted[0].Dirty {
		t.Fatalf("evicted = %+v, want dirty line 0x0", evicted)
	}
	c.Fill(0x180, memory.PermRead, 1, false) // now evicts clean 0x80
	if len(evicted) != 2 || evicted[1].Addr != 0x80 || evicted[1].Dirty {
		t.Fatalf("second eviction = %+v, want clean 0x80", evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteThroughNeverDirties(t *testing.T) {
	c := smallCache(WriteThroughNoAllocate)
	c.Fill(0x2000, memory.PermRead|memory.PermWrite, 1, false)
	c.Access(0x2000, true)
	l, _ := c.Get(0x2000)
	if l.Dirty {
		t.Fatal("write-through line became dirty")
	}
	if c.Stats().WriteHits != 1 {
		t.Fatalf("write hits = %d", c.Stats().WriteHits)
	}
}

func TestFillDirtyStartsDirty(t *testing.T) {
	c := smallCache(WriteBack)
	c.Fill(0x3000, memory.PermWrite, 1, true)
	l, ok := c.Get(0x3000)
	if !ok || !l.Dirty {
		t.Fatal("write-allocate fill not dirty")
	}
}

func TestRefillExistingLine(t *testing.T) {
	c := smallCache(WriteBack)
	c.Fill(0x100, memory.PermRead, 1, false)
	ev, evOk := c.Fill(0x100, memory.PermRead|memory.PermWrite, 1, true)
	if evOk {
		t.Fatalf("refill evicted %+v", ev)
	}
	if c.Resident() != 1 {
		t.Fatalf("Resident = %d, want 1", c.Resident())
	}
	l, _ := c.Get(0x100)
	if !l.Dirty || l.Perm != memory.PermRead|memory.PermWrite {
		t.Fatalf("refill did not update line: %+v", l)
	}
}

func TestInvalidatePageSelective(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 1024, LineBytes: 128, Assoc: 8, Policy: WriteBack})
	c.TrackPages()
	for i := 0; i < memory.LinesPerPage; i++ {
		c.Fill(uint64(0x10000+i*128), memory.PermRead, 1, false)
	}
	c.Fill(0x20000, memory.PermRead, 1, false) // other page
	if got := c.Resident(); got != memory.LinesPerPage+1 {
		t.Fatalf("Resident = %d, want %d", got, memory.LinesPerPage+1)
	}
	n := c.InvalidatePage(0x10234) // any addr in the page
	if n != memory.LinesPerPage {
		t.Fatalf("invalidated %d lines, want %d", n, memory.LinesPerPage)
	}
	if !c.Probe(0x20000) {
		t.Fatal("invalidation leaked to another page")
	}
	if c.DistinctPages() != 1 {
		t.Fatalf("DistinctPages = %d, want 1", c.DistinctPages())
	}
}

func TestInvalidateLineReportsDirty(t *testing.T) {
	c := smallCache(WriteBack)
	c.Fill(0x80, memory.PermWrite, 1, true)
	dirty, was := c.InvalidateLine(0x80)
	if !was || !dirty {
		t.Fatalf("InvalidateLine = (%v,%v), want (true,true)", dirty, was)
	}
	if _, was = c.InvalidateLine(0x80); was {
		t.Fatal("double invalidate reported resident")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := smallCache(WriteBack)
	fired := 0
	c.OnEvict = func(Line) { fired++ }
	c.Fill(0x0, memory.PermRead, 1, false)
	c.Fill(0x1000, memory.PermRead, 1, true)
	c.Fill(0x80, memory.PermRead, 2, true)
	if n := c.InvalidateASID(2); n != 1 {
		t.Fatalf("InvalidateASID = %d, want 1", n)
	}
	if n := c.InvalidateAll(); n != 2 {
		t.Fatalf("InvalidateAll = %d, want 2", n)
	}
	if c.Resident() != 0 {
		t.Fatal("lines survived full invalidation")
	}
	// Bulk invalidation never fires OnEvict, yet accounts the writebacks
	// the dirty lines owe.
	if st := c.Stats(); fired != 0 || st.Invalidated != 3 || st.Writebacks != 2 {
		t.Fatalf("OnEvict fired %d times, stats %+v; want 0, 3 invalidated, 2 writebacks", fired, st)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := New(Config{SizeBytes: 256, LineBytes: 128, Assoc: 2, Policy: WriteBack})
	c.Fill(0x0, memory.PermRead, 1, false)
	c.Fill(0x80, memory.PermRead, 1, false)
	c.Access(0x0, false) // 0x80 is now LRU
	c.Fill(0x100, memory.PermRead, 1, false)
	if c.Probe(0x80) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(0x0) {
		t.Fatal("MRU line evicted")
	}
}

func TestLifetimeTracking(t *testing.T) {
	var clock uint64
	c := New(Config{SizeBytes: 128, LineBytes: 128, Assoc: 1, Policy: WriteBack})
	c.TrackLifetimes(func() uint64 { return clock })
	var active uint64
	c.OnEvict = func(l Line) { active = l.ActiveLifetime() }
	clock = 10
	c.Fill(0x0, memory.PermRead, 1, false)
	clock = 50
	c.Access(0x0, false)
	clock = 500
	c.Fill(0x80, memory.PermRead, 1, false) // evict
	if active != 40 {
		t.Fatalf("active lifetime = %d, want 40 (50-10)", active)
	}
}

func TestBankMapping(t *testing.T) {
	c := New(Config{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 8, Banks: 8, Policy: WriteBack})
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		b := c.Bank(uint64(i * 128))
		if b < 0 || b >= 8 {
			t.Fatalf("bank %d out of range", b)
		}
		seen[b] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d banks used across 64 consecutive lines", len(seen))
	}
	c2 := New(Config{SizeBytes: 1024, LineBytes: 128, Assoc: 2, Policy: WriteBack})
	if c2.Bank(0xdeadbeef) != 0 {
		t.Fatal("unbanked cache returned nonzero bank")
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := smallCache(WriteBack)
	c.Fill(0x40, memory.PermRead, 1, false)
	before := c.Stats()
	c.Probe(0x40)
	c.Probe(0x4000)
	c.Get(0x40)
	if c.Stats() != before {
		t.Fatal("probe disturbed stats")
	}
}

// Property: resident never exceeds capacity; a filled line is immediately
// resident; hits only happen on lines that were filled and not yet evicted.
func TestCacheConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 2048, LineBytes: 128, Assoc: 4, Policy: WriteBack})
		resident := make(map[uint64]bool)
		c.OnEvict = func(l Line) { delete(resident, l.Addr) }
		for _, op := range ops {
			addr := uint64(op%128) * 128
			if op%2 == 0 {
				c.Fill(addr, memory.PermRead, 1, false)
				resident[addr] = true
			} else {
				_, hit := c.Access(addr, false)
				if hit != resident[addr] {
					return false
				}
			}
			if c.Resident() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 8}
	if cfg.Lines() != 16384 {
		t.Fatalf("Lines = %d", cfg.Lines())
	}
	if cfg.Sets() != 2048 {
		t.Fatalf("Sets = %d", cfg.Sets())
	}
}
