package memory

import (
	"testing"
	"testing/quick"
)

func TestAddrGeometry(t *testing.T) {
	a := VAddr(0x12345)
	if a.Page() != 0x12 {
		t.Fatalf("Page = %#x, want 0x12", uint64(a.Page()))
	}
	if a.Line() != 0x12300 {
		t.Fatalf("Line = %#x, want 0x12300", uint64(a.Line()))
	}
	if a.LineIndex() != 6 { // offset 0x345 >> 7 = 6
		t.Fatalf("LineIndex = %d, want 6", a.LineIndex())
	}
	if a.Offset() != 0x345 {
		t.Fatalf("Offset = %#x, want 0x345", a.Offset())
	}
	if LinesPerPage != 32 {
		t.Fatalf("LinesPerPage = %d, want 32", LinesPerPage)
	}
	if got := VPN(7).Base(); got != 0x7000 {
		t.Fatalf("VPN(7).Base = %#x, want 0x7000", uint64(got))
	}
}

func TestPermAllows(t *testing.T) {
	cases := []struct {
		p           Perm
		read, write bool
	}{
		{0, false, false},
		{PermRead, true, false},
		{PermWrite, false, true},
		{PermRead | PermWrite, true, true},
	}
	for _, c := range cases {
		if c.p.Allows(false) != c.read {
			t.Errorf("%v.Allows(read) = %v, want %v", c.p, c.p.Allows(false), c.read)
		}
		if c.p.Allows(true) != c.write {
			t.Errorf("%v.Allows(write) = %v, want %v", c.p, c.p.Allows(true), c.write)
		}
	}
	if (PermRead | PermWrite).String() != "rw" {
		t.Errorf("perm string = %q", (PermRead | PermWrite).String())
	}
}

func TestPageTableMapLookupUnmap(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	pt := NewPageTable(fa)
	if _, ok := pt.Lookup(42); ok {
		t.Fatal("lookup on empty table succeeded")
	}
	pt.Map(42, 1234, PermRead)
	pte, ok := pt.Lookup(42)
	if !ok || pte.PPN != 1234 || pte.Perm != PermRead {
		t.Fatalf("Lookup = %+v, %v", pte, ok)
	}
	if pt.Pages() != 1 {
		t.Fatalf("Pages = %d, want 1", pt.Pages())
	}
	// Remap updates in place.
	pt.Map(42, 1234, PermRead|PermWrite)
	if pt.Pages() != 1 {
		t.Fatalf("Pages after remap = %d, want 1", pt.Pages())
	}
	if !pt.Unmap(42) {
		t.Fatal("Unmap failed")
	}
	if pt.Unmap(42) {
		t.Fatal("double Unmap succeeded")
	}
	if _, ok := pt.Lookup(42); ok {
		t.Fatal("lookup after unmap succeeded")
	}
}

// TestMapRejectsWideVPNs: the radix table keeps 36 VPN bits, so a VPN at
// or beyond 1<<36 would share a leaf with a smaller one (mapping
// 0x10000000 and 0x10000000+1<<48 once left one page that Translate and
// the walker resolved differently). Map and MapLarge panic on one instead.
func TestMapRejectsWideVPNs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	as := NewAddressSpace(1, NewFrameAlloc(0x1000))
	as.EnsureMapped(0x10000000)
	mustPanic("EnsureMapped beyond 48 bits", func() { as.EnsureMapped(0x10000000 + 1<<VABits) })
	mustPanic("Map of VPN 1<<36", func() { as.Table.Map(1<<VPNBits, 7, PermRead) })
	mustPanic("MapLarge of VPN 1<<36", func() { as.Table.MapLarge(1<<VPNBits, 1<<9, PermRead) })
	as.Table.Map(1<<VPNBits-1, 7, PermRead)
	if as.Table.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", as.Table.Pages())
	}
}

func TestPageTableWalkTrace(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	pt := NewPageTable(fa)
	pt.Map(0x123456789>>PageShift, 99, PermRead)
	vpn := VPN(0x123456789 >> PageShift)
	pte, tr, levels := pt.Walk(vpn)
	if !pte.Valid || pte.PPN != 99 {
		t.Fatalf("Walk pte = %+v", pte)
	}
	if levels != Levels {
		t.Fatalf("levels = %d, want %d", levels, Levels)
	}
	seen := make(map[PAddr]bool)
	for i, a := range tr {
		if a == 0 {
			t.Fatalf("level %d trace address is zero", i)
		}
		if seen[a] {
			t.Fatalf("duplicate node address %#x", uint64(a))
		}
		seen[a] = true
	}
	// Two VPNs sharing upper bits share upper-level entries.
	vpn2 := vpn + 1
	pt.Map(vpn2, 100, PermRead)
	_, tr2, _ := pt.Walk(vpn2)
	for lvl := 0; lvl < Levels-1; lvl++ {
		// Same node frame at upper levels (entry addresses may differ only
		// within the same frame for the leaf-most interior level).
		if tr[lvl]>>PageShift != tr2[lvl]>>PageShift {
			t.Fatalf("level %d frames differ for adjacent pages", lvl)
		}
	}
	// Walk of unmapped region terminates early.
	_, _, lv := pt.Walk(0x7FFFFFFFF)
	if lv >= Levels {
		t.Fatalf("unmapped walk traversed %d levels", lv)
	}
}

func TestFrameAllocRecycles(t *testing.T) {
	fa := NewFrameAlloc(10)
	a, b := fa.Alloc(), fa.Alloc()
	if a == b {
		t.Fatal("duplicate frames")
	}
	if fa.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", fa.InUse())
	}
	fa.Free(a)
	if c := fa.Alloc(); c != a {
		t.Fatalf("recycled frame = %d, want %d", c, a)
	}
}

func TestAddressSpaceDemandMapping(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	as := NewAddressSpace(1, fa)
	if _, _, ok := as.Translate(0x4000); ok {
		t.Fatal("translate before mapping succeeded")
	}
	pte := as.EnsureMapped(0x4123)
	if !pte.Valid {
		t.Fatal("EnsureMapped returned invalid PTE")
	}
	pa, perm, ok := as.Translate(0x4123)
	if !ok {
		t.Fatal("translate after mapping failed")
	}
	if pa != pte.PPN.Base()+0x123 {
		t.Fatalf("pa = %#x, want %#x", uint64(pa), uint64(pte.PPN.Base())+0x123)
	}
	if perm != PermRead|PermWrite {
		t.Fatalf("perm = %v", perm)
	}
	// Second touch of the same page reuses the frame.
	pte2 := as.EnsureMapped(0x4FFF)
	if pte2.PPN != pte.PPN {
		t.Fatal("same page got two frames")
	}
}

func TestAddressSpaceSynonyms(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	as := NewAddressSpace(1, fa)
	as.EnsureMapped(0x10000)
	as.MapSynonym(0x90000, 0x10000, PermRead)
	p1, _, _ := as.Translate(0x10040)
	p2, _, _ := as.Translate(0x90040)
	if p1 != p2 {
		t.Fatalf("synonym translations differ: %#x vs %#x", uint64(p1), uint64(p2))
	}
	ppn := p1.Page()
	if r, _ := as.refs.Get(uint64(ppn)); r.n != 2 {
		t.Fatalf("frame %#x has %d references, want 2", uint64(ppn), r.n)
	}
	// Unmapping one synonym keeps the frame alive.
	inUse := fa.InUse()
	as.Unmap(0x90000)
	if fa.InUse() != inUse {
		t.Fatal("frame freed while a synonym remains")
	}
	as.Unmap(0x10000)
	if fa.InUse() != inUse-1 {
		t.Fatal("frame not freed after last mapping removed")
	}
}

// TestUnmapInsideLargePage: Unmap of a page that a 2MB mapping serves
// reports false and changes nothing: the translation stays and no frame is
// freed, so the next demand-mapped page gets a fresh frame, not one the
// large mapping still serves.
func TestUnmapInsideLargePage(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	as := NewAddressSpace(1, fa)
	large := as.EnsureMappedLarge(0x40000000)
	for _, va := range []VAddr{0x40000000, 0x40003000} {
		before, _ := as.Table.Lookup(va.Page())
		inUse := fa.InUse()
		if as.Unmap(va) {
			t.Errorf("Unmap(%#x) inside a 2MB mapping reported true", uint64(va))
		}
		if after, ok := as.Table.Lookup(va.Page()); !ok || after != before {
			t.Errorf("Unmap(%#x): translation %+v %v, want %+v", uint64(va), after, ok, before)
		}
		if fa.InUse() != inUse {
			t.Errorf("Unmap(%#x): %d frames in use, want %d", uint64(va), fa.InUse(), inUse)
		}
	}
	if pte := as.EnsureMapped(0x80000000); pte.PPN >= large.PPN && pte.PPN < large.PPN+PagesPerLarge {
		t.Fatalf("EnsureMapped got frame %#x, which the 2MB mapping at frame %#x still serves", uint64(pte.PPN), uint64(large.PPN))
	}
	if n := as.Release(); n != PagesPerLarge+1 {
		t.Fatalf("Release freed %d frames, want %d", n, PagesPerLarge+1)
	}
}

func TestAddressSpaceProtect(t *testing.T) {
	fa := NewFrameAlloc(0x1000)
	as := NewAddressSpace(1, fa)
	as.EnsureMapped(0x8000)
	if !as.Protect(0x8000, PermRead) {
		t.Fatal("Protect failed")
	}
	_, perm, _ := as.Translate(0x8000)
	if perm != PermRead {
		t.Fatalf("perm = %v, want r-", perm)
	}
	if as.Protect(0xdead000, PermRead) {
		t.Fatal("Protect of unmapped page succeeded")
	}
}

// Property: translation is consistent — same VA always yields same PA, and
// distinct pages get distinct frames (absent synonyms).
func TestAddressSpaceTranslationProperty(t *testing.T) {
	f := func(pages []uint16) bool {
		fa := NewFrameAlloc(1 << 20)
		as := NewAddressSpace(3, fa)
		ppns := make(map[VPN]PPN)
		seen := make(map[PPN]VPN)
		for _, p := range pages {
			va := VAddr(p) << PageShift
			pte := as.EnsureMapped(va)
			if prev, ok := ppns[va.Page()]; ok {
				if prev != pte.PPN {
					return false // unstable mapping
				}
				continue
			}
			if owner, dup := seen[pte.PPN]; dup && owner != va.Page() {
				return false // frame double-allocated
			}
			ppns[va.Page()] = pte.PPN
			seen[pte.PPN] = va.Page()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
