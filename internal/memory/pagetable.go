package memory

import (
	"fmt"

	"vcache/internal/flatmap"
)

// Levels is the depth of the radix page table (x86-64 style: PML4, PDPT,
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

// node is one radix page-table node. Each node occupies a physical frame so
// that walks touch realistic physical addresses (needed by the page-walk
// cache model).
type node struct {
	frame    PPN
	children [entriesPerNode]*node // interior levels
	leaves   [entriesPerNode]PTE   // leaf level only
	large    map[int]PTE           // 2MB leaves at the PD level (lazy)
	leaf     bool
}

// WalkTrace records the physical address of the page-table entry touched at
// each level during a walk, root first. Page-walk caches key on these.
type WalkTrace [Levels]PAddr

// PageTable is a 4-level radix page table. The radix tree is the model —
// walks touch its per-level physical frames — but functional translations
// (Lookup) are served from flat open-addressing mirrors of the leaves, one
// for 4KB pages and one for 2MB regions, kept in lockstep by the three leaf
// mutators (Map, Unmap, MapLarge).
type PageTable struct {
	root  *node
	alloc *FrameAlloc
	pages int // count of valid leaf mappings

	flat      flatmap.Map[PTE] // vpn -> 4KB leaf
	flatLarge flatmap.Map[PTE] // 2MB region base vpn -> unadjusted large leaf
}

// NewPageTable creates an empty table whose nodes draw frames from alloc.
func NewPageTable(alloc *FrameAlloc) *PageTable {
	return &PageTable{root: &node{frame: alloc.Alloc()}, alloc: alloc}
}

// Pages returns the number of valid leaf mappings.
func (pt *PageTable) Pages() int { return pt.pages }

func levelIndex(vpn VPN, level int) int {
	// level 0 is the root; the root consumes the highest 9 bits of the
	// 36-bit VPN space we model.
	shift := uint((Levels - 1 - level) * bitsPerLevel)
	return int(vpn>>shift) & levelIndexMask
}

// entryAddr returns the physical address of the PTE slot for vpn within n at
// the given level. Entries are 8 bytes.
func entryAddr(n *node, vpn VPN, level int) PAddr {
	return n.frame.Base() + PAddr(levelIndex(vpn, level)*8)
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
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		idx := levelIndex(vpn, level)
		child := n.children[idx]
		if child == nil {
			child = &node{frame: pt.alloc.Alloc(), leaf: level == Levels-2}
			n.children[idx] = child
		}
		n = child
	}
	idx := levelIndex(vpn, Levels-1)
	if !n.leaves[idx].Valid {
		pt.pages++
	}
	n.leaves[idx] = PTE{PPN: ppn, Perm: perm, Valid: true}
	pt.flat.Put(uint64(vpn), n.leaves[idx])
}

// Unmap removes the translation for vpn. It reports whether a valid mapping
// existed.
func (pt *PageTable) Unmap(vpn VPN) bool {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		n = n.children[levelIndex(vpn, level)]
		if n == nil {
			return false
		}
	}
	idx := levelIndex(vpn, Levels-1)
	if !n.leaves[idx].Valid {
		return false
	}
	n.leaves[idx] = PTE{}
	pt.flat.Delete(uint64(vpn))
	pt.pages--
	return true
}

// MapLarge installs a 2MB mapping: vpn and ppn must be 512-page aligned;
// the region's translations resolve at the PD level. Panics on
// misalignment, on a VPN beyond the modeled address space, or when 4KB
// mappings already occupy the slot's subtree.
func (pt *PageTable) MapLarge(vpn VPN, ppn PPN, perm Perm) {
	if uint64(vpn)&(PagesPerLarge-1) != 0 || uint64(ppn)&(PagesPerLarge-1) != 0 {
		panic(fmt.Sprintf("memory: MapLarge misaligned vpn=%#x ppn=%#x", uint64(vpn), uint64(ppn)))
	}
	checkVPN(vpn)
	n := pt.root
	for level := 0; level < Levels-2; level++ {
		idx := levelIndex(vpn, level)
		child := n.children[idx]
		if child == nil {
			child = &node{frame: pt.alloc.Alloc()}
			n.children[idx] = child
		}
		n = child
	}
	idx := levelIndex(vpn, Levels-2)
	if n.children[idx] != nil {
		panic("memory: MapLarge over existing 4KB mappings")
	}
	if n.large == nil {
		n.large = make(map[int]PTE)
	}
	if _, ok := n.large[idx]; !ok {
		pt.pages += PagesPerLarge
	}
	n.large[idx] = PTE{PPN: ppn, Perm: perm, Valid: true, Large: true}
	pt.flatLarge.Put(uint64(vpn), n.large[idx])
}

// largeAt returns the 2MB leaf covering vpn at node n (the PD level), with
// the PPN adjusted to vpn's 4KB frame.
func largeAt(n *node, vpn VPN) (PTE, bool) {
	if n.large == nil {
		return PTE{}, false
	}
	pte, ok := n.large[levelIndex(vpn, Levels-2)]
	if !ok {
		return PTE{}, false
	}
	pte.PPN += PPN(uint64(vpn) & (PagesPerLarge - 1))
	return pte, true
}

// Lookup returns the PTE for vpn, if valid. Purely functional (no timing):
// it is served from the flat leaf mirrors, not the radix tree, so the hot
// translation path is two table probes at most. Large mappings shadow 4KB
// leaves beneath them (as the radix walk resolves them first) and return a
// synthesized 4KB-granular PTE with Large set.
func (pt *PageTable) Lookup(vpn VPN) (PTE, bool) {
	if pt.flatLarge.Len() != 0 {
		base := vpn &^ VPN(PagesPerLarge-1)
		if pte, ok := pt.flatLarge.Get(uint64(base)); ok {
			pte.PPN += PPN(uint64(vpn) & (PagesPerLarge - 1))
			return pte, true
		}
	}
	pte, ok := pt.flat.Get(uint64(vpn))
	return pte, ok
}

// Walk performs a full walk for vpn, returning the PTE, the physical
// addresses touched at each level (for page-walk-cache modeling), and the
// number of levels actually traversed before the walk terminated (equal to
// Levels on success, or 3 when a 2MB leaf resolves the walk early).
func (pt *PageTable) Walk(vpn VPN) (PTE, WalkTrace, int) {
	var tr WalkTrace
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		tr[level] = entryAddr(n, vpn, level)
		if level == Levels-2 {
			if pte, ok := largeAt(n, vpn); ok {
				return pte, tr, level + 1
			}
		}
		next := n.children[levelIndex(vpn, level)]
		if next == nil {
			return PTE{}, tr, level + 1
		}
		n = next
	}
	tr[Levels-1] = entryAddr(n, vpn, Levels-1)
	pte := n.leaves[levelIndex(vpn, Levels-1)]
	return pte, tr, Levels
}

// FrameAlloc hands out physical frames. Frees are recycled LIFO.
type FrameAlloc struct {
	next PPN
	free []PPN
	used int
}

// NewFrameAlloc returns an allocator whose first frame is base.
func NewFrameAlloc(base PPN) *FrameAlloc {
	return &FrameAlloc{next: base}
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
