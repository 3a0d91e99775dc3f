package memory

import (
	"fmt"

	"vcache/internal/flatmap"
)

// Levels is the depth of the page table (x86-64 style: PML4, PDPT,
// PD, PT).
const Levels = 4

const (
	bitsPerLevel   = 9
	entriesPerNode = 1 << bitsPerLevel
	levelIndexMask = entriesPerNode - 1
)

// Large-page geometry: a level-3 (PD) leaf maps 2MB = 512 base pages.
const (
	LargePageShift = PageShift + bitsPerLevel
	LargePageSize  = 1 << LargePageShift
	PagesPerLarge  = 1 << bitsPerLevel
)

// PTE is a leaf page-table entry. For translations served by a 2MB
// mapping, Large is set and PPN is already adjusted to the requested 4KB
// frame within the large page (use LargeBase to recover the region base).
type PTE struct {
	PPN   PPN
	Perm  Perm
	Valid bool
	Large bool
}

// LargeBase returns the first VPN/PPN of the 2MB region containing a
// (vpn, ppn) translation pair served by a large page.
func LargeBase(vpn VPN, ppn PPN) (VPN, PPN) {
	off := uint64(vpn) & (PagesPerLarge - 1)
	return vpn - VPN(off), ppn - PPN(off)
}

// WalkTrace records the physical address of the page-table entry touched at
// each level during a walk, root first. Page-walk caches key on these.
type WalkTrace [Levels]PAddr

// path holds the frames of the nodes from just below the root down to one
// node: path[l-1] is the frame of the level-l node (the root is level 0).
type path [Levels - 1]PPN

// PageTable is a 4-level x86-64-style page table kept flat. The leaves are
// two open-addressing maps, one for 4KB pages and one for 2MB regions, and
// each node below the root is one entry of a third, keyed by its level and
// the VPN prefix that selects it (dirKey), whose value holds the frames on
// its path. Nodes still occupy physical frames — allocated top-down from
// the FrameAlloc on the first Map or MapLarge that needs them and never
// freed — so a Walk touches the per-level physical addresses a radix tree
// would (page-walk caches key on them), at the cost of one node probe and
// one leaf probe.
type PageTable struct {
	root  PPN
	alloc *FrameAlloc
	pages int // count of valid leaf mappings

	nodes     flatmap.Map[path] // dirKey(vpn, level) -> the node's path
	flat      flatmap.Map[PTE]  // vpn -> 4KB leaf
	flatLarge flatmap.Map[PTE]  // 2MB region base vpn -> unadjusted large leaf
}

// NewPageTable creates an empty table whose nodes draw frames from alloc.
func NewPageTable(alloc *FrameAlloc) *PageTable {
	return &PageTable{root: alloc.Alloc(), alloc: alloc}
}

// reuse empties the table under a fresh root frame, as NewPageTable would
// build it, keeping its maps' capacity. The old nodes' frames stay
// allocated.
func (pt *PageTable) reuse() {
	pt.root = pt.alloc.Alloc()
	pt.pages = 0
	pt.nodes.Reset()
	pt.flat.Reset()
	pt.flatLarge.Reset()
}

// Pages returns the number of valid leaf mappings.
func (pt *PageTable) Pages() int { return pt.pages }

// AppendPages appends every mapped 4KB page to dst, each page of a 2MB
// mapping included, in no particular order, and returns it: Pages()
// entries.
func (pt *PageTable) AppendPages(dst []VPN) []VPN {
	for _, k := range pt.flat.AppendKeys(nil) {
		dst = append(dst, VPN(k))
	}
	for _, k := range pt.flatLarge.AppendKeys(nil) {
		for i := VPN(0); i < PagesPerLarge; i++ {
			dst = append(dst, VPN(k)+i)
		}
	}
	return dst
}

func levelIndex(vpn VPN, level int) int {
	// level 0 is the root; the root consumes the highest 9 bits of the
	// 36-bit VPN space we model.
	shift := uint((Levels - 1 - level) * bitsPerLevel)
	return int(vpn>>shift) & levelIndexMask
}

// entryAddr returns the physical address of the PTE slot for vpn within the
// level's node held in frame. Entries are 8 bytes.
func entryAddr(frame PPN, vpn VPN, level int) PAddr {
	return frame.Base() + PAddr(levelIndex(vpn, level)*8)
}

// dirKey keys the level-l node covering vpn (0 < l < Levels): the level
// above the VPN bits, below them the VPN prefix the levels above l consume.
func dirKey(vpn VPN, level int) uint64 {
	return uint64(level)<<VPNBits | uint64(vpn)>>((Levels-level)*bitsPerLevel)
}

// node returns the path of the level-l node covering vpn, first allocating
// every missing node on the way down, parents before children.
func (pt *PageTable) node(vpn VPN, level int) path {
	if p, ok := pt.nodes.Get(dirKey(vpn, level)); ok {
		return p
	}
	var p path
	if level > 1 {
		p = pt.node(vpn, level-1)
	}
	p[level-1] = pt.alloc.Alloc()
	pt.nodes.Put(dirKey(vpn, level), p)
	return p
}

// trace fills tr[1..level] with the entry addresses vpn's walk reads in the
// nodes on p.
func trace(tr *WalkTrace, p *path, vpn VPN, level int) {
	for l := 1; l <= level; l++ {
		tr[l] = entryAddr(p[l-1], vpn, l)
	}
}

// checkVPN panics on a VPN beyond the modeled address space, which would
// alias a smaller one in the table. Trace inputs are checked on entry, so
// only a bug reaches it.
func checkVPN(vpn VPN) {
	if vpn>>VPNBits != 0 {
		panic(fmt.Sprintf("memory: vpn %#x beyond the %d-bit VPN space", uint64(vpn), VPNBits))
	}
}

// Map installs (or replaces) a translation vpn -> ppn with perm. It panics
// on a VPN beyond the modeled address space.
func (pt *PageTable) Map(vpn VPN, ppn PPN, perm Perm) {
	checkVPN(vpn)
	pt.node(vpn, Levels-1)
	if !pt.flat.Put(uint64(vpn), PTE{PPN: ppn, Perm: perm, Valid: true}) {
		pt.pages++
	}
}

// Unmap removes the translation for vpn. It reports whether a valid mapping
// existed. The leaf's node stays, so MapLarge still finds the region
// occupied.
func (pt *PageTable) Unmap(vpn VPN) bool {
	if _, ok := pt.flat.Delete(uint64(vpn)); !ok {
		return false
	}
	pt.pages--
	return true
}

// MapLarge installs a 2MB mapping: vpn and ppn must be 512-page aligned;
// the region's translations resolve at the PD level. Panics on
// misalignment, on a VPN beyond the modeled address space, or when a
// 4KB-page node already occupies the region (it stays once its pages are
// unmapped).
func (pt *PageTable) MapLarge(vpn VPN, ppn PPN, perm Perm) {
	if uint64(vpn)&(PagesPerLarge-1) != 0 || uint64(ppn)&(PagesPerLarge-1) != 0 {
		panic(fmt.Sprintf("memory: MapLarge misaligned vpn=%#x ppn=%#x", uint64(vpn), uint64(ppn)))
	}
	checkVPN(vpn)
	if _, ok := pt.nodes.Get(dirKey(vpn, Levels-1)); ok {
		panic("memory: MapLarge over existing 4KB mappings")
	}
	pt.node(vpn, Levels-2)
	if !pt.flatLarge.Put(uint64(vpn), PTE{PPN: ppn, Perm: perm, Valid: true, Large: true}) {
		pt.pages += PagesPerLarge
	}
}

// large returns the 2MB leaf covering vpn, with the PPN adjusted to vpn's
// 4KB frame. Callers skip it while no 2MB leaf exists.
func (pt *PageTable) large(vpn VPN) (PTE, bool) {
	pte, ok := pt.flatLarge.Get(uint64(vpn &^ VPN(PagesPerLarge-1)))
	pte.PPN += PPN(uint64(vpn) & (PagesPerLarge - 1))
	return pte, ok
}

// Lookup returns the PTE for vpn, if valid. Purely functional (no timing):
// two leaf probes at most. Large mappings shadow 4KB leaves beneath them
// (as a walk resolves them first) and return a synthesized 4KB-granular
// PTE with Large set.
func (pt *PageTable) Lookup(vpn VPN) (PTE, bool) {
	if pt.flatLarge.Len() != 0 {
		if pte, ok := pt.large(vpn); ok {
			return pte, true
		}
	}
	return pt.flat.Get(uint64(vpn))
}

// Walk performs a full walk for vpn, returning the PTE, the physical
// addresses touched at each level (for page-walk-cache modeling), and the
// number of levels actually traversed before the walk terminated (equal to
// Levels on success, or 3 when a 2MB leaf resolves the walk early). A walk
// that finds no node at some level ends there, having read that level's
// entry; the deepest node present on vpn's path says where.
func (pt *PageTable) Walk(vpn VPN) (PTE, WalkTrace, int) {
	var tr WalkTrace
	tr[0] = entryAddr(pt.root, vpn, 0)
	if pt.flatLarge.Len() != 0 {
		if pte, ok := pt.large(vpn); ok {
			p, _ := pt.nodes.Get(dirKey(vpn, Levels-2))
			trace(&tr, &p, vpn, Levels-2)
			return pte, tr, Levels - 1
		}
	}
	if p, ok := pt.nodes.Get(dirKey(vpn, Levels-1)); ok {
		tr[1] = entryAddr(p[0], vpn, 1)
		tr[2] = entryAddr(p[1], vpn, 2)
		tr[3] = entryAddr(p[2], vpn, 3)
		pte, _ := pt.flat.Get(uint64(vpn))
		return pte, tr, Levels
	}
	for level := Levels - 2; level > 0; level-- {
		if p, ok := pt.nodes.Get(dirKey(vpn, level)); ok {
			trace(&tr, &p, vpn, level)
			return PTE{}, tr, level + 1
		}
	}
	return PTE{}, tr, 1
}

// FrameAlloc hands out physical frames. Frees are recycled LIFO.
type FrameAlloc struct {
	base PPN
	next PPN
	free []PPN
	used int
}

// NewFrameAlloc returns an allocator whose first frame is base.
func NewFrameAlloc(base PPN) *FrameAlloc {
	return &FrameAlloc{base: base, next: base}
}

// Reset takes back every frame, returning the allocator to the state
// NewFrameAlloc left it in: the next frame is base again. It keeps the
// free list's storage. Whoever holds frames from it must drop them
// (AddressSpace.Discard).
func (fa *FrameAlloc) Reset() {
	fa.next = fa.base
	fa.free = fa.free[:0]
	fa.used = 0
}

// AllocContig returns n physically contiguous fresh frames, aligned to n
// when n is a power of two (2MB pages need 512 frames at 2MB alignment).
// Contiguous runs never come from the free list.
func (fa *FrameAlloc) AllocContig(n int) PPN {
	if n > 0 && n&(n-1) == 0 {
		mask := PPN(n - 1)
		fa.next = (fa.next + mask) &^ mask
	}
	fa.used += n
	p := fa.next
	fa.next += PPN(n)
	return p
}

// Alloc returns a fresh (or recycled) frame.
func (fa *FrameAlloc) Alloc() PPN {
	fa.used++
	if n := len(fa.free); n > 0 {
		p := fa.free[n-1]
		fa.free = fa.free[:n-1]
		return p
	}
	p := fa.next
	fa.next++
	return p
}

// Free returns a frame to the allocator.
func (fa *FrameAlloc) Free(p PPN) {
	fa.used--
	fa.free = append(fa.free, p)
}

// InUse returns the number of live frames.
func (fa *FrameAlloc) InUse() int { return fa.used }

func (fa *FrameAlloc) String() string {
	return fmt.Sprintf("frames{inUse: %d, next: %#x}", fa.used, uint64(fa.next))
}
