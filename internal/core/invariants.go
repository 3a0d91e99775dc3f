package core

import (
	"fmt"

	"vcache/internal/memory"
)

// CheckInvariants verifies the cross-structure bookkeeping the virtual
// cache hierarchy's correctness rests on. It is cheap enough to run after
// every test run and is the simulator's substitute for RTL assertions:
//
//  1. BT inclusion: every resident L2 line (virtual designs) belongs to a
//     page with a live BT entry, cached under that page's leading virtual
//     address, with the line's bit set in the entry's bit vector.
//  2. Bit-vector soundness: every set bit corresponds to a resident L2
//     line (no stale bits — stale bits would leak invalidation work).
//  3. No synonym duplication: at most one virtual address per physical
//     line is resident in the L2.
//  4. Invalidation-filter soundness: every resident L1 line's page is
//     present in its CU's filter with a count >= the resident line count
//     (conservative over-counting is allowed, undercounting would miss
//     invalidations).
//  5. Write-through L1s hold no dirty lines.
//
// It returns the first violation found, or nil.
func (s *System) CheckInvariants() error {
	if s.cfg.Kind != VirtualHierarchy {
		return s.checkL1Clean()
	}
	// Walk every resident L2 line via the pages the address spaces map,
	// each page of a 2MB mapping included. Caches without ASID tags key
	// lines by bare virtual address, so another space's pages would alias
	// the running space's lines; they hold only the running space's
	// lines, as every context switch flushes them.
	spaces := s.spaces
	if !s.cfg.ASIDTags {
		spaces = map[memory.ASID]*memory.AddressSpace{s.asid: s.as}
	}
	type lineInfo struct {
		count int
	}
	physSeen := make(map[memory.PAddr]*lineInfo)
	for _, sp := range spaces {
		sp := sp
		for _, vpnPage := range sp.Table.AppendPages(nil) {
			base := vpnPage.Base()
			pa, _, ok := sp.Translate(base)
			if !ok {
				continue
			}
			v, hasEntry := s.fbt.Entry(pa.Page())
			residentMask := uint32(0)
			for idx := 0; idx < memory.LinesPerPage; idx++ {
				va := base + memory.VAddr(idx*memory.LineSize)
				key := s.vkeyFor(va, sp.ID)
				if !s.l2.Probe(key) {
					continue
				}
				residentMask |= 1 << uint(idx)
				if !hasEntry {
					return fmt.Errorf("L2 line %#x (asid %d) resident without a BT entry", uint64(va), sp.ID)
				}
				if v.LVPN != vpnPage || v.ASID != sp.ID {
					// Resident under a non-leading address: duplication.
					return fmt.Errorf("L2 line %#x resident but page's leading VPN is %#x", uint64(va), uint64(v.LVPN))
				}
				if v.BitVec&(1<<uint(idx)) == 0 {
					return fmt.Errorf("L2 line %#x resident but BT bit %d clear", uint64(va), idx)
				}
				info := physSeen[pa.Line()+memory.PAddr(idx*memory.LineSize)]
				if info == nil {
					physSeen[pa.Line()+memory.PAddr(idx*memory.LineSize)] = &lineInfo{count: 1}
				} else {
					info.count++
					return fmt.Errorf("physical line of %#x cached under two virtual addresses", uint64(va))
				}
			}
			if hasEntry && v.ASID == sp.ID && v.LVPN == vpnPage {
				if stale := v.BitVec &^ residentMask; stale != 0 {
					return fmt.Errorf("BT entry for page %#x has stale bits %#x", uint64(vpnPage), stale)
				}
			}
		}
	}
	// Filter soundness per CU.
	if s.filtersL1() {
		for cu, l1 := range s.l1s {
			counts := make(map[memory.VPN]int)
			for _, sp := range spaces {
				for _, vpnPage := range sp.Table.AppendPages(nil) {
					base := vpnPage.Base()
					for idx := 0; idx < memory.LinesPerPage; idx++ {
						va := base + memory.VAddr(idx*memory.LineSize)
						if l1.Probe(s.vkeyFor(va, sp.ID)) {
							counts[vpnPage]++
						}
					}
				}
			}
			for vpn, n := range counts {
				if f, _ := s.filters[cu].Get(uint64(vpn)); int(f) < n {
					return fmt.Errorf("cu %d filter undercounts page %#x: %d < %d", cu, uint64(vpn), f, n)
				}
			}
		}
	}
	return s.checkL1Clean()
}

func (s *System) checkL1Clean() error {
	for cu, l1 := range s.l1s {
		st := l1.Stats()
		if st.Writebacks != 0 {
			return fmt.Errorf("cu %d write-through L1 produced %d writebacks", cu, st.Writebacks)
		}
	}
	return nil
}
