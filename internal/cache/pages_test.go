package cache

import (
	"math/rand"
	"testing"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// scanPages is the reference model of the maintained page counts: it walks
// every set, as DistinctPages once did, and tallies the live lines of each
// 4KB page, in total and per address space.
func scanPages(c *Cache) (total map[uint64]int32, perASID map[memory.ASID]map[uint64]int32) {
	total = map[uint64]int32{}
	perASID = map[memory.ASID]map[uint64]int32{}
	for i := 0; i < c.sets.Slots(); i++ {
		if !c.sets.Live(i) {
			continue
		}
		page := c.tags[i] >> memory.PageShift
		asid := memory.ASID(c.sets.ASID(i))
		total[page]++
		if perASID[asid] == nil {
			perASID[asid] = map[uint64]int32{}
		}
		perASID[asid][page]++
	}
	return total, perASID
}

// equalCounts reports whether a maintained page map holds exactly want.
func equalCounts(m *flatmap.Map[int32], want map[uint64]int32) bool {
	if m == nil {
		return len(want) == 0
	}
	if m.Len() != len(want) {
		return false
	}
	for page, n := range want {
		if got, ok := m.Get(page); !ok || got != n {
			return false
		}
	}
	return true
}

// checkPages compares DistinctPages and every maintained count with the
// scan.
func checkPages(t *testing.T, c *Cache, op int) {
	t.Helper()
	total, perASID := scanPages(c)
	if got := c.DistinctPages(); got != len(total) {
		t.Fatalf("op %d: DistinctPages = %d, scan counts %d", op, got, len(total))
	}
	if !equalCounts(&c.pageLines, total) {
		t.Fatalf("op %d: page line counts differ from the scan %v", op, total)
	}
	for asid := memory.ASID(0); asid < 8; asid++ {
		var m *flatmap.Map[int32]
		if ac := c.perASID.Ref(uint64(asid)); ac != nil {
			m = ac.pages
		}
		if !equalCounts(m, perASID[asid]) {
			t.Fatalf("op %d: ASID %d page counts differ from the scan %v", op, asid, perASID[asid])
		}
	}
}

// drivePages plays ops (two bytes each) into a page-tracking cache and
// checks the maintained counts against the scan after every one. Lines of
// three address spaces share eight pages, so one page holds lines of
// several spaces, as a physical L2 does under shared frames. With wrap the
// generation counter starts at its ceiling, so bulk invalidations cross the
// normalize pass.
func drivePages(t *testing.T, ops []byte, wrap bool) {
	c := New(Config{SizeBytes: 8 * 1024, LineBytes: memory.LineSize, Assoc: 4, Policy: WriteBack})
	c.TrackPages()
	if wrap {
		c.ep.SetGen(^uint32(0) - 3)
	}
	for i := 0; i+1 < len(ops); i += 2 {
		b, arg := ops[i], ops[i+1]
		asid := memory.ASID(1 + (b>>3)%3)
		addr := uint64(arg) * memory.LineSize // 8 pages of 32 lines
		switch b % 8 {
		case 0:
			c.InvalidateASID(asid)
		case 1:
			if arg%4 == 0 {
				c.InvalidateAll()
			}
		case 2:
			c.InvalidateLine(addr)
		case 3:
			c.InvalidatePage(addr)
		case 4, 5:
			c.Fill(addr, memory.PermRead|memory.PermWrite, asid, b&0x80 != 0)
		default:
			c.Access(addr, b&0x80 != 0)
		}
		checkPages(t, c, i/2)
	}
}

// TestDistinctPagesMatchesScan: the O(1) DistinctPages, and the per-page
// and per-(ASID, page) counts behind it, equal a scan of the cache after
// every operation of random Fill / Access / InvalidateLine /
// InvalidatePage / InvalidateASID / InvalidateAll streams, with and
// without a generation wrap.
func TestDistinctPagesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		ops := make([]byte, 3000)
		rng.Read(ops)
		drivePages(t, ops, trial%4 == 0)
	}
}

// FuzzDistinctPages lets the fuzzer drive the same property.
func FuzzDistinctPages(f *testing.F) {
	f.Add([]byte{4, 0, 12, 1, 20, 32, 0, 0, 4, 2, 8, 0}, false)
	f.Add([]byte{4, 0, 12, 0, 3, 0, 1, 0, 5, 33, 0, 0, 0, 0}, true)
	f.Fuzz(func(t *testing.T, ops []byte, wrap bool) {
		if len(ops) > 1<<13 {
			ops = ops[:1<<13]
		}
		drivePages(t, ops, wrap)
	})
}

// TestDistinctPagesRequiresTracking: DistinctPages is only maintained on a
// cache that opted in before its first fill.
func TestDistinctPagesRequiresTracking(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	c := smallCache(WriteBack)
	mustPanic("DistinctPages without TrackPages", func() { c.DistinctPages() })
	c.Fill(0x80, memory.PermRead, 1, false)
	mustPanic("TrackPages on a filled cache", c.TrackPages)
}

// TestTrackPagesRecyclesMaps pins the steady state of page tracking under
// ASID churn: once warm, filling a fresh address space's lines and
// retiring it (InvalidateASID) or flushing everything (InvalidateAll)
// allocates nothing, because emptied per-space page maps are reused.
func TestTrackPagesRecyclesMaps(t *testing.T) {
	c := New(Config{SizeBytes: 256 * 1024, LineBytes: memory.LineSize, Assoc: 8, Policy: WriteBack})
	c.TrackPages()
	asid := memory.ASID(1)
	round := func() {
		for i := uint64(0); i < 256; i++ {
			c.Fill(i*memory.LineSize, memory.PermRead, asid, i%3 == 0)
		}
		if asid%5 == 0 {
			c.InvalidateAll()
		} else {
			c.InvalidateASID(asid)
		}
		asid = asid%200 + 1
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("fill-and-retire round: %v allocs, want 0", n)
	}
}
