package memory

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The VPN clusters the differential draws from: 2MB regions (one PT node,
// or one large page, each) and 1GB regions (one PD node each), in three
// root slots and nested so that clusters share nodes.
var (
	clusters2M = [...]VPN{0, 1 << 9, 5<<18 | 17<<9, 0x1FF<<27 | 3<<18 | 0x1FF<<9}
	clusters1G = [...]VPN{0, 5 << 18, 0x1FF<<27 | 3<<18}
)

// diffVPN decodes a VPN: sel picks a 2MB cluster, a 1GB cluster or the
// whole 36-bit space, and v (40 bits) the offset within it.
func diffVPN(sel byte, v uint64) VPN {
	switch sel % 8 {
	case 0, 1, 2, 3:
		return clusters2M[sel%4] + VPN(v&(PagesPerLarge-1))
	case 4, 5:
		return clusters1G[sel%2] + VPN(v&(1<<(2*bitsPerLevel)-1))
	default:
		return VPN(v & (1<<VPNBits - 1))
	}
}

// diffOp encodes one differential op: kind, flags, VPN selector and
// offset, and a 16-bit PPN whose low two bits are the permission.
func diffOp(kind, flags, sel byte, v uint64, ppn uint16) []byte {
	return []byte{kind | flags<<3, sel, byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(ppn), byte(ppn >> 8)}
}

// catch runs f and returns what it panicked with, as text ("" for none).
func catch(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// drivePageTableDifferential decodes ops, nine bytes each (see diffOp),
// and applies each to the flat PageTable and to the radix reference, each
// drawing node frames from its own FrameAlloc at the same base. Kinds 0–2
// Map, 3 Unmaps, 4 MapLarge, 5 Lookup, 6–7 Walk, except that kind 7 with
// flags 4 resets: the flat table's allocator takes every frame back
// (FrameAlloc.Reset) and the table empties under a fresh root (reuse), as
// a System's Reset rebuilds its address space, while the reference is
// built anew on a new allocator. Flags%8 == 1 misaligns a MapLarge's VPN,
// 2 its PPN, and 3 widens a Map or MapLarge VPN beyond the modeled space.
// After every op it compares the two tables' answers, the Lookup and the
// Walk (PTE, trace, levels) of the op's VPN, Pages() and the allocators'
// next frames.
func drivePageTableDifferential(t *testing.T, ops []byte) {
	t.Helper()
	fa, ra := NewFrameAlloc(0x1000), NewFrameAlloc(0x1000)
	pt, ref := NewPageTable(fa), newRefPageTable(ra)
	for n := 0; n+9 <= len(ops); n += 9 {
		o := ops[n : n+9]
		kind, flags := o[0]&7, o[0]>>3
		vpn := diffVPN(o[1], uint64(o[2])|uint64(o[3])<<8|uint64(o[4])<<16|uint64(o[5])<<24|uint64(o[6])<<32)
		raw := uint16(o[7]) | uint16(o[8])<<8
		ppn, perm := PPN(raw), Perm(raw&3)
		arg := vpn
		if flags%8 == 3 {
			arg |= 1 << VPNBits
		}
		var got, want string
		switch kind {
		case 0, 1, 2:
			got = catch(func() { pt.Map(arg, ppn, perm) })
			want = catch(func() { ref.Map(arg, ppn, perm) })
		case 3:
			got, want = fmt.Sprint(pt.Unmap(vpn)), fmt.Sprint(ref.Unmap(vpn))
		case 4:
			base, frame := arg&^(PagesPerLarge-1), PPN(raw)<<bitsPerLevel
			switch flags % 8 {
			case 1:
				base |= 1
			case 2:
				frame |= 1
			}
			got = catch(func() { pt.MapLarge(base, frame, perm) })
			want = catch(func() { ref.MapLarge(base, frame, perm) })
		case 5:
			pe, pok := pt.Lookup(vpn)
			re, rok := ref.Lookup(vpn)
			got, want = fmt.Sprint(pe, pok), fmt.Sprint(re, rok)
		case 7:
			if flags == 4 {
				fa.Reset()
				pt.reuse()
				ra = NewFrameAlloc(0x1000)
				ref = newRefPageTable(ra)
				break
			}
			fallthrough
		default:
			pe, ptr, pl := pt.Walk(vpn)
			re, rtr, rl := ref.Walk(vpn)
			got, want = fmt.Sprint(pe, ptr, pl), fmt.Sprint(re, rtr, rl)
		}
		op := fmt.Sprintf("op %d (kind %d flags %d on vpn %#x)", n/9, kind, flags, uint64(vpn))
		if got != want {
			t.Fatalf("%s: returned %q, reference %q", op, got, want)
		}
		pe, pok := pt.Lookup(vpn)
		re, rok := ref.Lookup(vpn)
		if pe != re || pok != rok {
			t.Fatalf("%s: Lookup %+v %v, reference %+v %v", op, pe, pok, re, rok)
		}
		pw, ptr, pl := pt.Walk(vpn)
		rw, rtr, rl := ref.Walk(vpn)
		if pw != rw || ptr != rtr || pl != rl {
			t.Fatalf("%s: Walk %+v %#x %d, reference %+v %#x %d", op, pw, ptr, pl, rw, rtr, rl)
		}
		if pt.Pages() != ref.Pages() || fa.next != ra.next || fa.InUse() != ra.InUse() {
			t.Fatalf("%s: pages %d, next frame %#x, frames in use %d; reference %d, %#x, %d",
				op, pt.Pages(), uint64(fa.next), fa.InUse(), ref.Pages(), uint64(ra.next), ra.InUse())
		}
	}
}

// TestPageTableMatchesRadix holds the flat page table to the radix tree it
// replaced over pseudo-random op streams: the same frames, PTEs, walk
// traces and walk depths after every op.
func TestPageTableMatchesRadix(t *testing.T) {
	for seed := uint32(1); seed <= 8; seed++ {
		ops := make([]byte, 9*4000)
		x := seed
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		drivePageTableDifferential(t, ops)
	}
}

// FuzzPageTableDifferential lets the fuzzer drive the flat page table and
// the radix reference with the same op stream.
func FuzzPageTableDifferential(f *testing.F) {
	cat := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	// 4KB pages in two 2MB clusters, a large page over one (panics) and
	// beside them, a 4KB map under the large page, unmaps and walks.
	f.Add(cat(
		diffOp(0, 0, 0, 5, 0x1234), diffOp(0, 0, 1, 7, 0x21),
		diffOp(4, 0, 0, 0, 9), diffOp(4, 0, 2, 0, 10),
		diffOp(0, 0, 2, 3, 0x42), diffOp(6, 0, 2, 3, 0),
		diffOp(3, 0, 0, 5, 0), diffOp(4, 0, 0, 0, 11), diffOp(7, 0, 0, 5, 0),
	))
	// The three MapLarge panics and a wide Map.
	f.Add(cat(
		diffOp(4, 1, 4, 1<<9, 3), diffOp(4, 2, 5, 1<<9, 3),
		diffOp(4, 3, 3, 0, 3), diffOp(0, 3, 6, 99, 3), diffOp(5, 0, 6, 99, 0),
	))
	// Walks that end at each level.
	f.Add(cat(
		diffOp(6, 0, 6, 1<<35, 0), diffOp(0, 0, 4, 77, 5), diffOp(6, 0, 5, 77, 0),
		diffOp(6, 0, 4, 1<<9|3, 0), diffOp(6, 0, 4, 78, 0), diffOp(6, 0, 7, 1<<30, 0),
	))
	// A reset between mappings, a large page and an unmap.
	f.Add(cat(
		diffOp(0, 0, 0, 5, 0x1234), diffOp(4, 0, 1, 0, 9), diffOp(7, 4, 0, 0, 0),
		diffOp(0, 0, 0, 5, 0x1235), diffOp(4, 0, 2, 0, 10), diffOp(3, 0, 0, 5, 0),
		diffOp(7, 4, 0, 0, 0), diffOp(6, 0, 0, 5, 0),
	))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 9<<12 {
			ops = ops[:9<<12]
		}
		drivePageTableDifferential(t, ops)
	})
}

// TestReuseMatchesNew: a released space that Reuse recycles behaves as
// NewAddressSpace would have built it at the same point — the same root
// frame, and for the same ops the same frames, PTEs and walks — although
// its previous life changed its default permission and grew its tables.
func TestReuseMatchesNew(t *testing.T) {
	previous := func(as *AddressSpace) {
		for i := 0; i < 300; i++ {
			as.EnsureMapped(VAddr(0x40000000 + i*PageSize))
		}
		as.EnsureMappedLarge(VAddr(0x80000000))
		as.MapSynonym(0x90000000, 0x40000000, PermRead)
		as.MapFrame(0xA0000000, 7, PermRead)
		as.Unmap(0x40001000)
		as.SetDefaultPerm(PermRead)
		as.EnsureMapped(0xB0000000)
	}
	type obs struct {
		pte   PTE
		tr    WalkTrace
		lv    int
		next  PPN
		pages int
	}
	// next applies the same ops to a new space and records every answer.
	next := func(as *AddressSpace, fa *FrameAlloc) []obs {
		var out []obs
		record := func(va VAddr, pte PTE) {
			_, tr, lv := as.Table.Walk(va.Page())
			out = append(out, obs{pte, tr, lv, fa.next, as.Table.Pages()})
		}
		for i := 0; i < 40; i++ {
			va := VAddr(0x40000000 + i*3*PageSize)
			record(va, as.EnsureMapped(va))
		}
		record(0x80200000, as.EnsureMappedLarge(0x80200000)) // beside the old large page
		record(0x80000000, PTE{})                            // the old large page is gone
		record(0x90000000, as.MapSynonym(0x90000000, 0x40000000, PermRead))
		record(0xA0000000, as.MapFrame(0xA0000000, 9, PermRead))
		as.Unmap(0x40003000)
		record(0x40003000, PTE{})
		as.Protect(0x40006000, PermRead)
		pte, _ := as.Table.Lookup(VAddr(0x40006000).Page())
		record(0x40006000, pte)
		return out
	}
	fa1, fa2 := NewFrameAlloc(0x1000), NewFrameAlloc(0x1000)
	old1, old2 := NewAddressSpace(1, fa1), NewAddressSpace(1, fa2)
	previous(old1)
	previous(old2)
	if a, b := old1.Release(), old2.Release(); a != b {
		t.Fatalf("Release freed %d and %d frames", a, b)
	}
	fresh := NewAddressSpace(2, fa1)
	old2.Reuse(2)
	if old2.ID != 2 || old2.Table.root != fresh.Table.root || old2.Table.Pages() != 0 || old2.refs.Len() != 0 {
		t.Fatalf("reused space: id %d, root %#x, pages %d, %d frame references; want id 2, root %#x, empty",
			old2.ID, uint64(old2.Table.root), old2.Table.Pages(), old2.refs.Len(), uint64(fresh.Table.root))
	}
	want, got := next(fresh, fa1), next(old2, fa2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: reused space %+v, new space %+v", i, got[i], want[i])
		}
	}
	if a, b := frameRefs(old2), frameRefs(fresh); a != b {
		t.Fatalf("frame references differ: reused %s, new %s", a, b)
	}
	if a, b := sortedPages(old2.Table), sortedPages(fresh.Table); !slices.Equal(a, b) {
		t.Fatalf("mapped pages differ: reused %v, new %v", a, b)
	}
	if a, b := fresh.Release(), old2.Release(); a != b || fa1.next != fa2.next || fa1.InUse() != fa2.InUse() {
		t.Fatalf("second release: freed %d and %d, allocators %v and %v", b, a, fa2, fa1)
	}
}

// frameRefs renders the space's frame references in ascending PPN order.
func frameRefs(as *AddressSpace) string {
	keys := as.refs.AppendKeys(nil)
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		r, _ := as.refs.Get(k)
		fmt.Fprintf(&b, "%#x:%+v ", k, r)
	}
	return b.String()
}

// sortedPages lists the table's mapped pages in ascending order.
func sortedPages(pt *PageTable) []VPN {
	pages := pt.AppendPages(nil)
	slices.Sort(pages)
	return pages
}
