package core

import (
	"vcache/internal/fbt"
	"vcache/internal/iommu"
	"vcache/internal/memory"
	"vcache/internal/noc"
)

// Access implements gpu.MemoryPath, dispatching on the MMU design. addr is
// a coalesced 128B-line virtual address.
func (s *System) Access(cu int, addr memory.VAddr, write bool, done func()) {
	switch s.cfg.Kind {
	case IdealMMU:
		s.accessIdeal(cu, addr, write, done)
	case PhysicalBaseline:
		s.accessPhysical(cu, addr, write, done)
	case VirtualHierarchy:
		s.accessVirtual(cu, addr, write, done)
	case L1OnlyVirtual:
		s.accessL1Only(cu, addr, write, done)
	default:
		panic("core: unknown MMU kind")
	}
}

// ---------------------------------------------------------------------------
// Miss-merging infrastructure. Concurrent misses to the same cache line
// (or, for translations, the same page) merge into one outstanding request,
// as hardware MSHRs do; without this, the wide GPU front-end floods the
// IOMMU and DRAM with duplicates.

// lineWaiter is the continuation of a request that joined an outstanding
// line fill. filled=false means the line was not installed under the
// requested address (fault, or synonym resolved under the leading address).
type lineWaiter func(perm memory.Perm, filled bool)

// fetchLine coalesces misses on key (a line address). The first requester
// runs fetch, which must eventually call lineReady(key, ...) exactly once;
// later requesters just queue their waiter. Waiter lists come from a pool
// refilled by lineReady, so merging allocates nothing at steady state.
func (s *System) fetchLine(key uint64, w lineWaiter, fetch func()) {
	if list, outstanding := s.l2Pending[key]; outstanding {
		s.lineMerges++
		s.l2Pending[key] = append(list, w)
		return
	}
	var list []lineWaiter
	if n := len(s.linePool); n > 0 {
		list = s.linePool[n-1]
		s.linePool = s.linePool[:n-1]
	} else {
		list = make([]lineWaiter, 0, 8)
	}
	s.l2Pending[key] = append(list, w)
	fetch()
}

// lineReady resolves all waiters for key and recycles their list. Waiters
// may re-enter fetchLine; the list returns to the pool only after the last
// one ran, so reentrant fetches never see it.
func (s *System) lineReady(key uint64, perm memory.Perm, filled bool) {
	list := s.l2Pending[key]
	delete(s.l2Pending, key)
	for _, w := range list {
		w(perm, filled)
	}
	for i := range list {
		list[i] = nil // release closure references
	}
	s.linePool = append(s.linePool, list[:0])
}

// translatePerCU runs the per-CU TLB, falling back to the IOMMU over the
// interconnect on a miss (both directions pay the CU-IOMMU latency).
// Concurrent misses from the same CU to the same page merge into one
// outstanding request. The continuation receives the PTE or fault=true.
func (s *System) translatePerCU(cu int, va memory.VAddr, write bool, k func(pte memory.PTE, fault bool)) {
	vpn := va.Page()
	s.cuEng(cu).Schedule(s.cfg.Lat.PerCUTLB, func() {
		if e, ok := s.cuTLBs[cu].Lookup(s.asid, vpn); ok {
			if !e.Perm.Allows(write) {
				s.fault("perm", &s.cuStats[cu].faults.PermFaults)
				k(memory.PTE{}, true)
				return
			}
			k(memory.PTE{PPN: e.Frame(vpn), Perm: e.Perm, Valid: true, Large: e.Large}, false)
			return
		}
		// Optional private second-level TLB (§3.2 multi-level alternative).
		if len(s.cuTLB2s) > 0 {
			s.cuEng(cu).Schedule(s.cfg.PerCUTLB2Latency, func() {
				if e, ok := s.cuTLB2s[cu].Lookup(s.asid, vpn); ok {
					if !e.Perm.Allows(write) {
						s.fault("perm", &s.cuStats[cu].faults.PermFaults)
						k(memory.PTE{}, true)
						return
					}
					if e.Large {
						s.cuTLBs[cu].InsertLarge(s.asid, e.VPN, e.PPN, e.Perm)
					} else {
						s.cuTLBs[cu].Insert(s.asid, vpn, e.PPN, e.Perm)
					}
					k(memory.PTE{PPN: e.Frame(vpn), Perm: e.Perm, Valid: true, Large: e.Large}, false)
					return
				}
				s.missToIOMMU(cu, va, vpn, write, k)
			})
			return
		}
		s.missToIOMMU(cu, va, vpn, write, k)
	})
}

// missToIOMMU handles a fully-private TLB miss: classify it for Figure 2,
// merge with an outstanding same-page request, or send it to the IOMMU.
func (s *System) missToIOMMU(cu int, va memory.VAddr, vpn memory.VPN, write bool, k func(memory.PTE, bool)) {
	if s.cfg.ProbeResidency {
		s.classifyTLBMiss(cu, va)
	}
	if list, outstanding := s.tlbPending[cu][vpn]; outstanding {
		st := &s.cuStats[cu]
		st.tlbMerges++
		if list == nil {
			if n := len(st.waitPool); n > 0 {
				list = st.waitPool[n-1]
				st.waitPool = st.waitPool[:n-1]
			} else {
				list = make([]func(memory.PTE, bool), 0, 8)
			}
		}
		s.tlbPending[cu][vpn] = append(list, k)
		return
	}
	s.tlbPending[cu][vpn] = nil
	s.sendToBackend(cu, noc.CUToIOMMU, func() {
		s.io.Translate(s.asid, vpn, func(r iommu.Result) {
			s.sendToCU(cu, noc.CUToIOMMU, func() {
				if !r.Fault {
					if r.PTE.Large {
						bv, bp := memory.LargeBase(vpn, r.PTE.PPN)
						s.cuTLBs[cu].InsertLarge(s.asid, bv, bp, r.PTE.Perm)
						if len(s.cuTLB2s) > 0 {
							s.cuTLB2s[cu].InsertLarge(s.asid, bv, bp, r.PTE.Perm)
						}
					} else {
						s.cuTLBs[cu].Insert(s.asid, vpn, r.PTE.PPN, r.PTE.Perm)
						if len(s.cuTLB2s) > 0 {
							s.cuTLB2s[cu].Insert(s.asid, vpn, r.PTE.PPN, r.PTE.Perm)
						}
					}
				}
				waiters := s.tlbPending[cu][vpn]
				delete(s.tlbPending[cu], vpn)
				s.deliverTranslation(cu, r, write, k)
				for _, w := range waiters {
					// Merged requests are loads/stores of the same
					// page; permission intent travels with each.
					s.deliverTranslation(cu, r, write, w)
				}
				if waiters != nil {
					for i := range waiters {
						waiters[i] = nil
					}
					st := &s.cuStats[cu]
					st.waitPool = append(st.waitPool, waiters[:0])
				}
			})
		})
	})
}

func (s *System) deliverTranslation(cu int, r iommu.Result, write bool, k func(memory.PTE, bool)) {
	if r.Fault {
		s.fault("page", &s.cuStats[cu].faults.PageFaults)
		k(memory.PTE{}, true)
		return
	}
	if !r.PTE.Perm.Allows(write) {
		s.fault("perm", &s.cuStats[cu].faults.PermFaults)
		k(memory.PTE{}, true)
		return
	}
	k(r.PTE, false)
}

// classifyTLBMiss records where the missing translation's data currently
// resides (Figure 2's breakdown), using functional translation.
func (s *System) classifyTLBMiss(cu int, va memory.VAddr) {
	s.probe.TLBMisses++
	pa, _, ok := s.as.Translate(va)
	if !ok {
		s.probe.MemAccess++
		return
	}
	l1Addr, l2Addr := uint64(pa.Line()), uint64(pa.Line())
	if s.cfg.Kind == L1OnlyVirtual {
		l1Addr = s.vkey(va.Line())
	}
	switch {
	case s.l1s[cu].Probe(l1Addr):
		s.probe.L1Hit++
	case s.l2.Probe(l2Addr):
		s.probe.L2Hit++
	default:
		s.probe.MemAccess++
	}
}

// l2Bank serializes an access through the addressed L2 bank and applies the
// bank access latency.
func (s *System) l2Bank(addr uint64, fn func()) {
	slot := s.l2banks[s.l2.Bank(addr)].Admit()
	s.eng.At(slot+s.cfg.Lat.L2Hit, fn)
}

// ---------------------------------------------------------------------------
// Ideal MMU: translation is free and never misses.

func (s *System) accessIdeal(cu int, va memory.VAddr, write bool, done func()) {
	pa, perm, ok := s.as.Translate(va)
	if !ok {
		s.fault("page", &s.cuStats[cu].faults.PageFaults)
		done()
		return
	}
	if !perm.Allows(write) {
		s.fault("perm", &s.cuStats[cu].faults.PermFaults)
		done()
		return
	}
	s.physCacheAccess(cu, pa.Line(), write, done)
}

// ---------------------------------------------------------------------------
// Physical baseline: per-CU TLB before the (physical) L1.

func (s *System) accessPhysical(cu int, va memory.VAddr, write bool, done func()) {
	s.translatePerCU(cu, va, write, func(pte memory.PTE, fault bool) {
		if fault {
			done()
			return
		}
		pa := pte.PPN.Base() + memory.PAddr(va.Offset())
		s.physCacheAccess(cu, pa.Line(), write, done)
	})
}

// physCacheAccess runs a physically-addressed request through L1 -> L2 ->
// DRAM (ideal MMU and physical baseline designs).
func (s *System) physCacheAccess(cu int, pa memory.PAddr, write bool, done func()) {
	addr := uint64(pa)
	const physPerm = memory.PermRead | memory.PermWrite
	s.cuEng(cu).Schedule(s.cfg.Lat.L1Hit, func() {
		l1 := s.l1s[cu]
		if write {
			l1.Access(addr, true) // update on hit; write-through, no allocate
			s.sendToBackend(cu, noc.CUToL2, func() {
				s.l2Bank(addr, func() {
					if _, hit := s.l2.Access(addr, true); hit {
						done()
						return
					}
					// Write-allocate: fetch the line, install dirty;
					// concurrent misses merge.
					s.fetchLine(addr, func(memory.Perm, bool) {
						s.l2.Access(addr, true)
						done()
					}, func() {
						s.mem.Access(false, func() {
							s.l2.Fill(addr, physPerm, s.asid, false)
							s.sampleL2Pages()
							s.lineReady(addr, physPerm, true)
						})
					})
				})
			})
			return
		}
		if _, hit := l1.Access(addr, false); hit {
			done()
			return
		}
		deliver := func(memory.Perm, bool) {
			s.sendToCU(cu, noc.CUToL2, func() {
				l1.Fill(addr, physPerm, s.asid, false)
				done()
			})
		}
		s.sendToBackend(cu, noc.CUToL2, func() {
			s.l2Bank(addr, func() {
				if _, hit := s.l2.Access(addr, false); hit {
					deliver(physPerm, true)
					return
				}
				s.fetchLine(addr, deliver, func() {
					s.mem.Access(false, func() {
						s.l2.Fill(addr, physPerm, s.asid, false)
						s.sampleL2Pages()
						s.lineReady(addr, physPerm, true)
					})
				})
			})
		})
	})
}

// ---------------------------------------------------------------------------
// Virtual cache hierarchy (the proposal): no per-CU TLBs; L1 and L2 are
// virtually indexed and tagged; translation and the FBT synonym check
// happen only after an L2 miss.

func (s *System) accessVirtual(cu int, va memory.VAddr, write bool, done func()) {
	line := va.Line()
	// Dynamic synonym remapping (§4.3): redirect known synonym pages to
	// their leading page before the L1 lookup, in parallel with the
	// access (no latency cost).
	if s.cfg.DynamicSynonymRemap {
		if lead, ok := s.remaps[cu].get(line.Page()); ok {
			s.cuStats[cu].remapHits++
			line = lead.Base() + memory.VAddr(line.Offset())
		}
	}
	s.cuEng(cu).Schedule(s.cfg.Lat.L1Hit, func() {
		l1 := s.l1s[cu]
		if write {
			if l, hit := l1.Access(s.vkey(line), true); hit && !l.Perm.Allows(true) {
				s.fault("perm", &s.cuStats[cu].faults.PermFaults)
				done()
				return
			}
			// Write-through: the store always proceeds to the L2.
			s.sendToBackend(cu, noc.CUToL2, func() { s.vcL2Write(cu, line, done) })
			return
		}
		if l, hit := l1.Access(s.vkey(line), false); hit {
			if !l.Perm.Allows(false) {
				s.fault("perm", &s.cuStats[cu].faults.PermFaults)
			}
			done()
			return
		}
		s.sendToBackend(cu, noc.CUToL2, func() { s.vcL2Read(cu, line, done) })
	})
}

func (s *System) vcL2Read(cu int, line memory.VAddr, done func()) {
	key := s.vkey(line)
	s.l2Bank(key, func() {
		if l, hit := s.l2.Access(key, false); hit {
			if !l.Perm.Allows(false) {
				s.fault("perm", &s.faults.PermFaults)
				// done touches warp state: complete it on the CU side.
				s.sendToCU(cu, noc.CUToL2, done)
				return
			}
			s.sendToCU(cu, noc.CUToL2, func() {
				s.fillL1(cu, line, l.Perm)
				done()
			})
			return
		}
		s.fetchLine(key, func(perm memory.Perm, filled bool) {
			s.sendToCU(cu, noc.CUToL2, func() {
				if filled {
					s.fillL1(cu, line, perm)
				}
				done()
			})
		}, func() {
			s.vcMissResolve(cu, line, false)
		})
	})
}

func (s *System) vcL2Write(cu int, line memory.VAddr, done func()) {
	key := s.vkey(line)
	s.l2Bank(key, func() {
		if l, hit := s.l2.Access(key, true); hit {
			if !l.Perm.Allows(true) {
				s.fault("perm", &s.faults.PermFaults)
				done()
				return
			}
			// Track writes for read-write synonym detection: an L2 hit
			// under this address means it is the page's leading VPN.
			s.fbt.MarkWrittenVPN(s.asid, line.Page())
			done()
			return
		}
		s.fetchLine(key, func(perm memory.Perm, filled bool) {
			if filled {
				s.l2.Access(key, true) // dirty the installed line
				s.fbt.MarkWrittenVPN(s.asid, line.Page())
			}
			done()
		}, func() {
			s.vcMissResolve(cu, line, true)
		})
	})
}

// vcMissResolve handles an L2 virtual-cache miss for the first requester
// of a line: translate at the IOMMU (shared TLB -> optional FBT second
// level -> PTW), run the BT synonym check, fetch the data, and resolve all
// merged waiters via lineReady.
func (s *System) vcMissResolve(cu int, line memory.VAddr, write bool) {
	vpn := line.Page()
	key := s.vkey(line)
	s.net.Send(noc.L2ToIOMMU, func() {
		s.io.Translate(s.asid, vpn, func(r iommu.Result) {
			if r.Fault {
				s.fault("page", &s.faults.PageFaults)
				s.lineReady(key, 0, false)
				return
			}
			if !r.PTE.Perm.Allows(write) {
				s.fault("perm", &s.faults.PermFaults)
				s.lineReady(key, 0, false)
				return
			}
			s.eng.Schedule(s.cfg.IOMMU.FBTLatency, func() {
				outcome, view := s.fbt.Check(r.PTE.PPN, s.asid, vpn, write)
				switch outcome {
				case fbt.Miss:
					s.fbt.Allocate(r.PTE.PPN, s.asid, vpn, r.PTE.Perm, write)
					s.fetchFillVC(line, r.PTE.PPN, r.PTE.Perm, key)
				case fbt.Leading:
					// Page tracked under this VPN but the line missed in
					// the L2: fetch it.
					s.fetchFillVC(line, r.PTE.PPN, view.Perm, key)
				case fbt.Synonym:
					s.synonymReplays++
					if s.cfg.DynamicSynonymRemap {
						// The remap table is front-end state; the update
						// rides a message back to the CU.
						s.sendToCU(cu, noc.CUToL2, func() {
							s.remaps[cu].put(vpn, view.LVPN)
						})
					}
					lline := view.LVPN.Base() + memory.VAddr(line.Offset())
					s.replaySynonym(lline, view, key)
				case fbt.RWFault:
					s.fault("rw-synonym", &s.faults.RWSynonym)
					s.lineReady(key, 0, false)
				}
			})
		})
	})
}

// replaySynonym re-runs a read under the page's leading virtual address.
// Per §4.1, only addresses the bit vector says will hit are replayed into
// the L2; otherwise the directory/memory is accessed and the data is cached
// under the leading address. The original (non-leading) requesters complete
// with filled=false: the data lives only under the leading address.
func (s *System) replaySynonym(lline memory.VAddr, view fbt.View, key uint64) {
	lkey := s.vkeyFor(lline, view.ASID)
	s.net.Send(noc.L2ToIOMMU, func() { // response travels back to the L2
		s.l2Bank(lkey, func() {
			if view.BitVec&(1<<uint(lline.LineIndex())) != 0 {
				if _, hit := s.l2.Access(lkey, false); hit {
					s.net.Send(noc.CUToL2, func() { s.lineReady(key, view.Perm, false) })
					return
				}
			}
			s.mem.Access(false, func() {
				if !s.l2.Probe(lkey) {
					s.l2.Fill(lkey, view.Perm, view.ASID, false)
					s.fbt.SetLine(view.PPN, lline.LineIndex())
					s.sampleL2Pages()
				}
				s.lineReady(key, view.Perm, false)
			})
		})
	})
}

// fetchFillVC fetches a line from memory, installs it in the virtual L2
// under the leading virtual address line, updates the BT bit vector, and
// resolves the waiters.
func (s *System) fetchFillVC(line memory.VAddr, ppn memory.PPN, perm memory.Perm, key uint64) {
	s.mem.Access(false, func() {
		if !s.l2.Probe(key) {
			s.l2.Fill(key, perm, s.asid, false)
			s.fbt.SetLine(ppn, line.LineIndex())
			s.sampleL2Pages()
		}
		s.lineReady(key, perm, true)
	})
}

// fillL1 installs a line into a CU's L1 and maintains its invalidation
// filter.
func (s *System) fillL1(cu int, line memory.VAddr, perm memory.Perm) {
	s.trackL1Fill(cu, line)
	s.l1s[cu].Fill(s.vkey(line), perm, s.asid, false)
}

// ---------------------------------------------------------------------------
// L1-only virtual caches: translation moves between the (virtual) L1 and
// the (physical) L2, through per-CU TLBs.

func (s *System) accessL1Only(cu int, va memory.VAddr, write bool, done func()) {
	line := va.Line()
	s.cuEng(cu).Schedule(s.cfg.Lat.L1Hit, func() {
		l1 := s.l1s[cu]
		if write {
			if l, hit := l1.Access(s.vkey(line), true); hit && !l.Perm.Allows(true) {
				s.fault("perm", &s.cuStats[cu].faults.PermFaults)
				done()
				return
			}
			s.translatePerCU(cu, line, true, func(pte memory.PTE, fault bool) {
				if fault {
					done()
					return
				}
				s.l1onlyBackend(cu, line, true, pte, done)
			})
			return
		}
		if l, hit := l1.Access(s.vkey(line), false); hit {
			if !l.Perm.Allows(false) {
				s.fault("perm", &s.cuStats[cu].faults.PermFaults)
			}
			done()
			return
		}
		s.translatePerCU(cu, line, false, func(pte memory.PTE, fault bool) {
			if fault {
				done()
				return
			}
			s.l1onlyBackend(cu, line, false, pte, done)
		})
	})
}

// l1onlyBackend runs the physical-L2 half of an L1-only-virtual access,
// once translation has produced the PTE: write-through/write-allocate
// stores, or a read whose fill is delivered back into the (virtual) L1.
// Shared by the per-line path above and the batched chunk fan-out.
func (s *System) l1onlyBackend(cu int, line memory.VAddr, write bool, pte memory.PTE, done func()) {
	const physPerm = memory.PermRead | memory.PermWrite
	pa := uint64(pte.PPN.Base() + memory.PAddr(line.Offset()))
	if write {
		s.sendToBackend(cu, noc.CUToL2, func() {
			s.l2Bank(pa, func() {
				if _, hit := s.l2.Access(pa, true); hit {
					done()
					return
				}
				s.fetchLine(pa, func(memory.Perm, bool) {
					s.l2.Access(pa, true)
					done()
				}, func() {
					s.mem.Access(false, func() {
						s.l2.Fill(pa, physPerm, s.asid, false)
						s.sampleL2Pages()
						s.lineReady(pa, physPerm, true)
					})
				})
			})
		})
		return
	}
	deliver := func(memory.Perm, bool) {
		s.sendToCU(cu, noc.CUToL2, func() {
			s.fillL1(cu, line, pte.Perm)
			done()
		})
	}
	s.sendToBackend(cu, noc.CUToL2, func() {
		s.l2Bank(pa, func() {
			if _, hit := s.l2.Access(pa, false); hit {
				deliver(pte.Perm, true)
				return
			}
			s.fetchLine(pa, deliver, func() {
				s.mem.Access(false, func() {
					s.l2.Fill(pa, physPerm, s.asid, false)
					s.sampleL2Pages()
					s.lineReady(pa, physPerm, true)
				})
			})
		})
	})
}
