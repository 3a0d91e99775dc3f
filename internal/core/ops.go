package core

import (
	"vcache/internal/memory"
)

// Shootdown performs a single-entry TLB shootdown for va's page across the
// GPU: per-CU TLBs, the shared IOMMU TLB, and — in the virtual-cache
// designs — the FBT (whose eviction path invalidates the page's cached
// data) or the virtual L1s directly. Call between runs: every effect,
// the L1 flushes included, has landed when it returns.
func (s *System) Shootdown(va memory.VAddr) {
	vpn := va.Page()
	for _, t := range s.cuTLBs {
		t.InvalidatePage(s.asid, vpn)
	}
	for _, t := range s.cuTLB2s {
		t.InvalidatePage(s.asid, vpn)
	}
	s.io.Shootdown(s.asid, vpn)
	switch s.cfg.Kind {
	case VirtualHierarchy:
		// The FT filters shootdowns for pages with no cached data; a hit
		// locks and evicts the entry, invalidating L2 lines via the bit
		// vector and flushing matching L1s (onFBTEvict). Remappings to or
		// from the page go stale, so the remap tables flush.
		s.fbt.Shootdown(s.asid, vpn)
		s.clearRemaps()
	case L1OnlyVirtual:
		// Virtual L1s hold lines under virtual addresses: invalidate the
		// page in each of them.
		for cu, l1 := range s.l1s {
			if l1.InvalidatePage(s.vkey(va)) > 0 {
				delete(s.filters[cu], vpn)
			}
		}
	}
}

// FlushGPU performs an all-entry shootdown: every TLB is flushed and, for
// the virtual hierarchy, the FBT is drained through its per-entry eviction
// path, which invalidates each entry's L2 lines and the L1s whose
// invalidation filters match (onFBTEvict). Call between runs.
func (s *System) FlushGPU() {
	for _, t := range s.cuTLBs {
		t.InvalidateAll()
	}
	for _, t := range s.cuTLB2s {
		t.InvalidateAll()
	}
	s.io.ShootdownAll()
	if s.fbt != nil {
		s.fbt.FlushAll()
	}
}

// RetireASID retires an address-space slot (tenant kernel rollover): every
// translation and cached line belonging to asid is dropped across the GPU
// — per-CU TLBs, the shared IOMMU TLB (one ASID-wide shootdown message
// instead of a page-by-page storm), the FBT, and the caches — and the
// backing address space is released so the slot can be reassigned to the
// next tenant. GPU L1s support no selective probes, so in the virtual
// designs any L1 holding the space's lines conservatively flushes whole
// (the same rule the FBT-eviction path applies); physically-tagged L1s
// invalidate selectively. The ASID-batched form invalidates the L2
// directly rather than entry-by-entry through BT bit vectors: the FBT's
// ASID flush retires its entries without the per-entry eviction hook, and
// the L2's ASID flush owes its dirty lines' writebacks, issued here in
// aggregate. Call between runs (with the engine drained).
func (s *System) RetireASID(asid memory.ASID) RetireStats {
	var rs RetireStats
	for _, t := range s.cuTLBs {
		rs.TLBEntries += t.InvalidateASID(asid)
	}
	for _, t := range s.cuTLB2s {
		rs.TLBEntries += t.InvalidateASID(asid)
	}
	rs.SharedTLBEntries = s.io.ShootdownASID(asid)
	if s.fbt != nil {
		rs.FBTEntries = s.fbt.FlushASID(asid)
	}
	// The L2 invalidates selectively; dirty lines write back once.
	_, dirty := s.l2.ASIDResident(asid)
	rs.L2Lines = s.l2.InvalidateASID(asid)
	for i := 0; i < dirty; i++ {
		s.mem.Access(true, func() {})
	}
	virtual := s.cfg.Kind == VirtualHierarchy || s.cfg.Kind == L1OnlyVirtual
	for cu, l1 := range s.l1s {
		lines, _ := l1.ASIDResident(asid)
		if lines == 0 {
			continue
		}
		if virtual {
			rs.L1Lines += l1.Resident() // the whole L1 flushes, not just asid's lines
			s.flushL1(cu)
		} else {
			rs.L1Lines += l1.InvalidateASID(asid)
		}
	}
	s.clearRemaps()
	if sp, ok := s.spaces[asid]; ok {
		sp.Release()
		delete(s.spaces, asid)
	}
	if asid == s.asid {
		s.as = s.SpaceFor(asid) // fresh, empty space under the same slot
		s.walker.SetTable(s.as.Table)
	}
	return rs
}

// RetireStats counts what one RetireASID dropped.
type RetireStats struct {
	TLBEntries       int // per-CU (and second-level) TLB entries
	SharedTLBEntries int // shared IOMMU TLB entries
	L2Lines          int
	L1Lines          int // lines lost to L1 flushes / selective invalidation
	FBTEntries       int
}

// Total sums every dropped entry and line.
func (r RetireStats) Total() int {
	return r.TLBEntries + r.SharedTLBEntries + r.L2Lines + r.L1Lines + r.FBTEntries
}

// CPUProbe models an invalidating coherence probe arriving from the CPU
// directory with a physical address. In the virtual hierarchy the BT acts
// as a coherence filter and reverse-translates the probe to the leading
// virtual address before it touches GPU caches; in the physical designs
// the probe indexes the L2 directly. It reports whether the probe reached
// (and invalidated data in) a GPU cache.
func (s *System) CPUProbe(pa memory.PAddr) bool {
	line := pa.Line()
	if s.cfg.Kind == VirtualHierarchy {
		va, asid, fwd := s.fbt.FilterProbe(line)
		if !fwd {
			return false
		}
		_, was := s.l2.InvalidateLine(s.vkeyFor(va, asid)) // OnEvict clears the BT bit
		return was
	}
	_, was := s.l2.InvalidateLine(uint64(line))
	return was
}

// ChangePermission updates a page's permission and performs the required
// shootdown, modeling an mprotect-style OS action.
func (s *System) ChangePermission(va memory.VAddr, perm memory.Perm) bool {
	if !s.as.Protect(va, perm) {
		return false
	}
	s.Shootdown(va)
	return true
}

// UnmapPage removes a page's mapping and performs the required shootdown.
func (s *System) UnmapPage(va memory.VAddr) bool {
	if _, _, ok := s.as.Translate(va); !ok {
		return false
	}
	s.Shootdown(va)
	return s.as.Unmap(va)
}
