package memory

import (
	"slices"
	"testing"
)

func TestMapLargeLookup(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	pt := NewPageTable(fa)
	base := VPN(4 * PagesPerLarge)
	ppn := fa.AllocContig(PagesPerLarge)
	pt.MapLarge(base, ppn, PermRead|PermWrite)

	// Every 4KB page inside the region resolves with the right offset.
	for _, off := range []uint64{0, 1, 255, PagesPerLarge - 1} {
		pte, ok := pt.Lookup(base + VPN(off))
		if !ok || !pte.Large {
			t.Fatalf("offset %d: pte=%+v ok=%v", off, pte, ok)
		}
		if pte.PPN != ppn+PPN(off) {
			t.Fatalf("offset %d: ppn=%d want %d", off, pte.PPN, ppn+PPN(off))
		}
	}
	// Outside the region: unmapped.
	if _, ok := pt.Lookup(base + PagesPerLarge); ok {
		t.Fatal("lookup past region succeeded")
	}
	if pt.Pages() != PagesPerLarge {
		t.Fatalf("Pages = %d, want %d", pt.Pages(), PagesPerLarge)
	}
}

// TestAppendPages: every mapped 4KB page, each page of a 2MB mapping
// included, Pages() of them; an unmapped page is gone.
func TestAppendPages(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	pt := NewPageTable(fa)
	pt.Map(3, 7, PermRead)
	pt.Map(5, 8, PermRead)
	pt.Unmap(5)
	base := VPN(2 * PagesPerLarge)
	pt.MapLarge(base, fa.AllocContig(PagesPerLarge), PermRead)
	want := []VPN{3}
	for i := VPN(0); i < PagesPerLarge; i++ {
		want = append(want, base+i)
	}
	if got := sortedPages(pt); !slices.Equal(got, want) || len(got) != pt.Pages() {
		t.Fatalf("AppendPages listed %d pages (%v...), Pages() %d; want %d: 3 and the 2MB mapping's", len(got), got[:min(len(got), 4)], pt.Pages(), len(want))
	}
}

func TestMapLargeWalkResolvesInThreeLevels(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	pt := NewPageTable(fa)
	base := VPN(8 * PagesPerLarge)
	pt.MapLarge(base, fa.AllocContig(PagesPerLarge), PermRead)
	pte, _, levels := pt.Walk(base + 17)
	if !pte.Valid || !pte.Large {
		t.Fatalf("walk pte = %+v", pte)
	}
	if levels != Levels-1 {
		t.Fatalf("large walk took %d levels, want %d", levels, Levels-1)
	}
}

func TestMapLargeAlignmentPanics(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	pt := NewPageTable(fa)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned MapLarge did not panic")
		}
	}()
	pt.MapLarge(VPN(1), PPN(0x2000), PermRead)
}

func TestMapLargeOverSmallPanics(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	pt := NewPageTable(fa)
	base := VPN(2 * PagesPerLarge)
	pt.Map(base+5, 99, PermRead)
	defer func() {
		if recover() == nil {
			t.Fatal("MapLarge over 4KB mappings did not panic")
		}
	}()
	pt.MapLarge(base, PPN(PagesPerLarge), PermRead)
}

func TestLargeBaseHelper(t *testing.T) {
	vpn := VPN(3*PagesPerLarge + 77)
	ppn := PPN(0x4000 + 77)
	bv, bp := LargeBase(vpn, ppn)
	if bv != 3*PagesPerLarge || bp != 0x4000 {
		t.Fatalf("LargeBase = %d,%d", bv, bp)
	}
}

func TestEnsureMappedLarge(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	as := NewAddressSpace(1, fa)
	va := VAddr(5 * LargePageSize)
	pte := as.EnsureMappedLarge(va + 0x1234)
	if !pte.Valid || !pte.Large {
		t.Fatalf("pte = %+v", pte)
	}
	// Second touch anywhere in the region reuses the mapping.
	before := fa.InUse()
	pte2 := as.EnsureMappedLarge(va + LargePageSize - 8)
	if fa.InUse() != before {
		t.Fatal("second touch allocated more frames")
	}
	if !pte2.Large {
		t.Fatal("second touch lost Large flag")
	}
	// Contiguity: translations across the region are physically adjacent.
	p1, _, _ := as.Translate(va)
	p2, _, _ := as.Translate(va + PageSize)
	if p2 != p1+PageSize {
		t.Fatalf("frames not contiguous: %#x then %#x", uint64(p1), uint64(p2))
	}
}

func TestAllocContig(t *testing.T) {
	fa := NewFrameAlloc(100)
	fa.Free(fa.Alloc()) // put one frame on the free list
	p := fa.AllocContig(8)
	for i := PPN(0); i < 8; i++ {
		if q := p + i; q < 100 {
			t.Fatalf("contiguous run overlaps reserved space at %d", q)
		}
	}
	// Free-listed frames must not appear inside a contiguous run.
	if p == 100 {
		// first Alloc took 100, freed; contiguous run must start past it
		t.Fatal("contiguous run reused free-listed frame")
	}
}
