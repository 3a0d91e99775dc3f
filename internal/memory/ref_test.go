package memory

import (
	"fmt"

	"vcache/internal/flatmap"
)

// refPageTable is the 4-level radix page table the flat PageTable
// replaced, kept verbatim apart from renames as the reference model of
// TestPageTableMatchesRadix and FuzzPageTableDifferential: a tree of
// refNodes, one per table node, each owning a physical frame, with flat
// leaf mirrors behind Lookup.

// refNode is one radix page-table node. Each node occupies a physical frame so
// that walks touch realistic physical addresses (needed by the page-walk
// cache model).
type refNode struct {
	frame    PPN
	children [entriesPerNode]*refNode // interior levels
	leaves   [entriesPerNode]PTE      // leaf level only
	large    map[int]PTE              // 2MB leaves at the PD level (lazy)
	leaf     bool
}

// refPageTable is a 4-level radix page table. The radix tree is the model —
// walks touch its per-level physical frames — but functional translations
// (Lookup) are served from flat open-addressing mirrors of the leaves, one
// for 4KB pages and one for 2MB regions, kept in lockstep by the three leaf
// mutators (Map, Unmap, MapLarge).
type refPageTable struct {
	root  *refNode
	alloc *FrameAlloc
	pages int // count of valid leaf mappings

	flat      flatmap.Map[PTE] // vpn -> 4KB leaf
	flatLarge flatmap.Map[PTE] // 2MB region base vpn -> unadjusted large leaf
}

// newRefPageTable creates an empty table whose nodes draw frames from alloc.
func newRefPageTable(alloc *FrameAlloc) *refPageTable {
	return &refPageTable{root: &refNode{frame: alloc.Alloc()}, alloc: alloc}
}

// Pages returns the number of valid leaf mappings.
func (pt *refPageTable) Pages() int { return pt.pages }

func refLevelIndex(vpn VPN, level int) int {
	// level 0 is the root; the root consumes the highest 9 bits of the
	// 36-bit VPN space we model.
	shift := uint((Levels - 1 - level) * bitsPerLevel)
	return int(vpn>>shift) & levelIndexMask
}

// refEntryAddr returns the physical address of the PTE slot for vpn within n at
// the given level. Entries are 8 bytes.
func refEntryAddr(n *refNode, vpn VPN, level int) PAddr {
	return n.frame.Base() + PAddr(refLevelIndex(vpn, level)*8)
}

// refCheckVPN panics on a VPN beyond the modeled address space, which would
// alias a smaller one in the table. Trace inputs are checked on entry, so
// only a bug reaches it.
func refCheckVPN(vpn VPN) {
	if vpn>>VPNBits != 0 {
		panic(fmt.Sprintf("memory: vpn %#x beyond the %d-bit VPN space", uint64(vpn), VPNBits))
	}
}

// Map installs (or replaces) a translation vpn -> ppn with perm. It panics
// on a VPN beyond the modeled address space.
func (pt *refPageTable) Map(vpn VPN, ppn PPN, perm Perm) {
	refCheckVPN(vpn)
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		idx := refLevelIndex(vpn, level)
		child := n.children[idx]
		if child == nil {
			child = &refNode{frame: pt.alloc.Alloc(), leaf: level == Levels-2}
			n.children[idx] = child
		}
		n = child
	}
	idx := refLevelIndex(vpn, Levels-1)
	if !n.leaves[idx].Valid {
		pt.pages++
	}
	n.leaves[idx] = PTE{PPN: ppn, Perm: perm, Valid: true}
	pt.flat.Put(uint64(vpn), n.leaves[idx])
}

// Unmap removes the translation for vpn. It reports whether a valid mapping
// existed.
func (pt *refPageTable) Unmap(vpn VPN) bool {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		n = n.children[refLevelIndex(vpn, level)]
		if n == nil {
			return false
		}
	}
	idx := refLevelIndex(vpn, Levels-1)
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
func (pt *refPageTable) MapLarge(vpn VPN, ppn PPN, perm Perm) {
	if uint64(vpn)&(PagesPerLarge-1) != 0 || uint64(ppn)&(PagesPerLarge-1) != 0 {
		panic(fmt.Sprintf("memory: MapLarge misaligned vpn=%#x ppn=%#x", uint64(vpn), uint64(ppn)))
	}
	refCheckVPN(vpn)
	n := pt.root
	for level := 0; level < Levels-2; level++ {
		idx := refLevelIndex(vpn, level)
		child := n.children[idx]
		if child == nil {
			child = &refNode{frame: pt.alloc.Alloc()}
			n.children[idx] = child
		}
		n = child
	}
	idx := refLevelIndex(vpn, Levels-2)
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

// refLargeAt returns the 2MB leaf covering vpn at node n (the PD level), with
// the PPN adjusted to vpn's 4KB frame.
func refLargeAt(n *refNode, vpn VPN) (PTE, bool) {
	if n.large == nil {
		return PTE{}, false
	}
	pte, ok := n.large[refLevelIndex(vpn, Levels-2)]
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
func (pt *refPageTable) Lookup(vpn VPN) (PTE, bool) {
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
func (pt *refPageTable) Walk(vpn VPN) (PTE, WalkTrace, int) {
	var tr WalkTrace
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		tr[level] = refEntryAddr(n, vpn, level)
		if level == Levels-2 {
			if pte, ok := refLargeAt(n, vpn); ok {
				return pte, tr, level + 1
			}
		}
		next := n.children[refLevelIndex(vpn, level)]
		if next == nil {
			return PTE{}, tr, level + 1
		}
		n = next
	}
	tr[Levels-1] = refEntryAddr(n, vpn, Levels-1)
	pte := n.leaves[refLevelIndex(vpn, Levels-1)]
	return pte, tr, Levels
}
