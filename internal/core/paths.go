package core

import (
	"vcache/internal/fbt"
	"vcache/internal/iommu"
	"vcache/internal/memory"
	"vcache/internal/sim"
)

// Access implements gpu.MemoryPath, dispatching on the MMU design. addr is
// a coalesced 128B-line virtual address. Every design but the ideal MMU
// carries the access as one pooled request record (request.go); the
// methods below are its stages.
func (s *System) Access(cu int, addr memory.VAddr, write bool, done func()) {
	switch s.cfg.Kind {
	case IdealMMU:
		s.accessIdeal(cu, addr, write, done)
	case PhysicalBaseline:
		s.eng.ScheduleEvent(s.cfg.Lat.PerCUTLB, s.newRequest(cu, addr, write, done), stTLB)
	case VirtualHierarchy:
		s.newRequest(cu, addr.Line(), write, done).accessVirtual()
	case L1OnlyVirtual:
		s.eng.ScheduleEvent(s.cfg.Lat.L1Hit, s.newRequest(cu, addr.Line(), write, done), stVirtL1)
	default:
		panic("core: unknown MMU kind")
	}
}

// physPerm is the permission of a physically-tagged cache line: physical
// caches hold no page permissions.
const physPerm = memory.PermRead | memory.PermWrite

// ---------------------------------------------------------------------------
// Miss merging. Concurrent misses to the same cache line (or, for
// translations, the same page) merge into one outstanding request, as
// hardware MSHRs do; without this, the wide GPU front-end floods the IOMMU
// and DRAM with duplicates. Each merged request keeps its own record, so
// its permission intent travels with it.

// fetchLine coalesces misses on r's line: r joins the outstanding fill of
// r.addr, or starts a new one and reports that it leads it. The leader
// must start the fill, which must eventually call its lineReady exactly
// once.
func (r *request) fetchLine() (lead bool) {
	lead = r.s.l2Pending.Lead(r.addr, r)
	if !lead {
		r.s.lineMerges++
	}
	return lead
}

// lineReady resolves the line fill r leads: r first, then every request
// merged behind it in merge order. filled=false means the line was not
// installed under the requested address (fault, or synonym resolved under
// the leading address). Waiters may re-enter fetchLine; the list returns
// to the pool only after the last one ran, so reentrant fetches never see
// it.
func (r *request) lineReady(perm memory.Perm, filled bool) {
	s := r.s
	waiters := s.l2Pending.Done(r.addr)
	r.lineFilled(perm, filled)
	for _, w := range waiters {
		w.lineFilled(perm, filled)
	}
	s.l2Pending.Recycle(waiters)
}

// lineFilled continues a request whose line fill resolved, the one that
// led it or one merged behind it, on the backend.
func (r *request) lineFilled(perm memory.Perm, filled bool) {
	s := r.s
	switch {
	case s.cfg.Kind != VirtualHierarchy:
		if r.write {
			s.l2.Access(r.addr, true) // write-allocate: install dirty
			r.finish()
			return
		}
		s.sendToCU(routeL2, r, stL1Fill)
	case r.write:
		if filled {
			if perm.Allows(true) {
				s.l2.Access(r.addr, true) // dirty the installed line
				s.fbt.MarkWrittenVPN(s.asid, r.line.Page())
			} else {
				// A store merged behind a load of a read-only page.
				s.fault("perm", &s.faults.PermFaults)
			}
		}
		r.finish()
	default:
		r.perm, r.filled = perm, filled
		s.sendToCU(routeL2, r, stVCDeliver)
	}
}

// lookupTLB runs the per-CU TLB, Lat.PerCUTLB after the access reached it,
// falling back to the optional private second-level TLB and then to the
// IOMMU over the interconnect (both directions pay the CU-IOMMU latency).
func (r *request) lookupTLB() {
	s, vpn := r.s, r.line.Page()
	if e, ok := s.cuTLBs[r.cu].Lookup(s.asid, vpn); ok {
		if !e.Perm.Allows(r.write) {
			r.permFault()
			return
		}
		r.translated(memory.PTE{PPN: e.Frame(vpn), Perm: e.Perm, Valid: true, Large: e.Large})
		return
	}
	// Optional private second-level TLB (§3.2 multi-level alternative).
	if len(s.cuTLB2s) > 0 {
		s.eng.ScheduleEvent(s.cfg.PerCUTLB2Latency, r, stTLB2)
		return
	}
	r.missToIOMMU()
}

func (r *request) lookupTLB2() {
	s, cu, vpn := r.s, r.cu, r.line.Page()
	e, ok := s.cuTLB2s[cu].Lookup(s.asid, vpn)
	if !ok {
		r.missToIOMMU()
		return
	}
	if !e.Perm.Allows(r.write) {
		r.permFault()
		return
	}
	if e.Large {
		s.cuTLBs[cu].InsertLarge(s.asid, e.VPN, e.PPN, e.Perm)
	} else {
		s.cuTLBs[cu].Insert(s.asid, vpn, e.PPN, e.Perm)
	}
	r.translated(memory.PTE{PPN: e.Frame(vpn), Perm: e.Perm, Valid: true, Large: e.Large})
}

// missToIOMMU handles a fully-private TLB miss: classify it for Figure 2,
// merge with an outstanding same-page request, or send it to the IOMMU.
func (r *request) missToIOMMU() {
	s, cu, vpn := r.s, r.cu, r.line.Page()
	if s.cfg.ProbeResidency {
		s.classifyTLBMiss(cu, r.line)
	}
	if !s.tlbPending[cu].Lead(uint64(vpn), r) {
		s.tlbMerges++
		return
	}
	s.sendToBackend(cu, routeIOMMU, r, stIOMMU)
}

// Translated receives the IOMMU's answer on the backend (iommu.Client):
// per-CU TLB misses carry it back to the CU; a virtual L2 miss goes on to
// the FBT.
func (r *request) Translated(res iommu.Result) {
	if r.s.cfg.Kind == VirtualHierarchy {
		r.vcTranslated(res)
		return
	}
	r.pte, r.fault = res.PTE, res.Fault
	r.s.sendToCU(routeIOMMU, r, stTLBFill)
}

// fillTLB lands an IOMMU answer at the CU: install it in the per-CU
// TLB(s), then resolve the request and every request merged behind it,
// each against its own permission intent.
func (r *request) fillTLB() {
	s, cu, vpn := r.s, r.cu, r.line.Page()
	res := iommu.Result{PTE: r.pte, Fault: r.fault}
	if !res.Fault {
		if res.PTE.Large {
			bv, bp := memory.LargeBase(vpn, res.PTE.PPN)
			s.cuTLBs[cu].InsertLarge(s.asid, bv, bp, res.PTE.Perm)
			if len(s.cuTLB2s) > 0 {
				s.cuTLB2s[cu].InsertLarge(s.asid, bv, bp, res.PTE.Perm)
			}
		} else {
			s.cuTLBs[cu].Insert(s.asid, vpn, res.PTE.PPN, res.PTE.Perm)
			if len(s.cuTLB2s) > 0 {
				s.cuTLB2s[cu].Insert(s.asid, vpn, res.PTE.PPN, res.PTE.Perm)
			}
		}
	}
	waiters := s.tlbPending[cu].Done(uint64(vpn))
	r.resolved(res)
	for _, w := range waiters {
		w.resolved(res)
	}
	s.tlbPending[cu].Recycle(waiters)
}

// resolved continues a request whose per-CU TLB miss was answered, the
// one that sent it or one merged behind it.
func (r *request) resolved(res iommu.Result) {
	if res.Fault {
		r.s.fault("page", &r.s.faults.PageFaults)
		r.finish()
		return
	}
	if !res.PTE.Perm.Allows(r.write) {
		r.permFault()
		return
	}
	r.translated(res.PTE)
}

// permFault ends a request that violated its page's permissions at the CU.
func (r *request) permFault() {
	r.s.fault("perm", &r.s.faults.PermFaults)
	r.finish()
}

// translated continues a permitted access with its translation: into the
// physical L1 (physical baseline) or on to the physical L2 (L1-only).
func (r *request) translated(pte memory.PTE) {
	if r.s.cfg.Kind == L1OnlyVirtual {
		r.l1onlyBackend(pte)
		return
	}
	pa := pte.PPN.Base() + memory.PAddr(r.line.Offset())
	r.physCacheAccess(pa.Line())
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
// bank access latency before h.Handle(arg) fires.
func (s *System) l2Bank(addr uint64, h sim.Handler, arg uint64) {
	slot := s.l2banks[s.l2.Bank(addr)].Admit()
	s.eng.AtEvent(slot+s.cfg.Lat.L2Hit, h, arg)
}

// ---------------------------------------------------------------------------
// Ideal MMU: translation is free and never misses.

func (s *System) accessIdeal(cu int, va memory.VAddr, write bool, done func()) {
	pa, perm, ok := s.as.Translate(va)
	if !ok {
		s.fault("page", &s.faults.PageFaults)
		done()
		return
	}
	if !perm.Allows(write) {
		s.fault("perm", &s.faults.PermFaults)
		done()
		return
	}
	s.newRequest(cu, va, write, done).physCacheAccess(pa.Line())
}

// ---------------------------------------------------------------------------
// Physical caches (ideal MMU and physical baseline): L1 -> L2 -> DRAM.

// physCacheAccess runs a physically-addressed request through the L1.
func (r *request) physCacheAccess(pa memory.PAddr) {
	r.addr = uint64(pa)
	r.s.eng.ScheduleEvent(r.s.cfg.Lat.L1Hit, r, stPhysL1)
}

func (r *request) physL1() {
	s := r.s
	l1 := s.l1s[r.cu]
	if r.write {
		l1.Access(r.addr, true) // update on hit; write-through, no allocate
		s.sendToBackend(r.cu, routeL2, r, stL2)
		return
	}
	if _, hit := l1.Access(r.addr, false); hit {
		r.finish()
		return
	}
	s.sendToBackend(r.cu, routeL2, r, stL2)
}

// physL2 serves a physically-addressed request at its L2 bank (physical
// designs and the L1-only design's physical L2). A store that hits
// completes here; a load's data returns to the CU. Misses merge per line:
// write-allocate stores install the fetched line dirty.
func (r *request) physL2() {
	s := r.s
	if _, hit := s.l2.Access(r.addr, r.write); hit {
		if r.write {
			r.finish()
		} else {
			s.sendToCU(routeL2, r, stL1Fill)
		}
		return
	}
	if r.fetchLine() {
		s.mem.Access(false, r, stFill)
	}
}

// physFill installs a fetched physical line and resolves its waiters.
func (r *request) physFill() {
	s := r.s
	s.l2.Fill(r.addr, physPerm, s.asid, false)
	s.sampleL2Pages()
	r.lineReady(physPerm, true)
}

// l1Fill lands a physical line's data at the CU: the physical L1, or the
// L1-only design's virtual L1 under the line's virtual address.
func (r *request) l1Fill() {
	s := r.s
	if s.cfg.Kind == L1OnlyVirtual {
		s.fillL1(r.cu, r.line, r.pte.Perm)
	} else {
		s.l1s[r.cu].Fill(r.addr, physPerm, s.asid, false)
	}
	r.finish()
}

// ---------------------------------------------------------------------------
// Virtual cache hierarchy (the proposal): no per-CU TLBs; L1 and L2 are
// virtually indexed and tagged; translation and the FBT synonym check
// happen only after an L2 miss.

func (r *request) accessVirtual() {
	s, cu := r.s, r.cu
	// Dynamic synonym remapping (§4.3): redirect known synonym pages to
	// their leading page before the L1 lookup, in parallel with the
	// access (no latency cost).
	if s.cfg.DynamicSynonymRemap {
		if lead, ok := s.remaps[cu].get(r.line.Page()); ok {
			s.remapHits++
			r.line = lead.Base() + memory.VAddr(r.line.Offset())
		}
	}
	s.eng.ScheduleEvent(s.cfg.Lat.L1Hit, r, stVirtL1)
}

// virtL1 runs the virtual L1 of the virtual hierarchy and the L1-only
// design. Loads that hit complete; everything else — misses, and stores,
// which write through — continues to the L2 (virtual hierarchy) or to the
// per-CU TLB (L1-only).
func (r *request) virtL1() {
	s, cu := r.s, r.cu
	r.addr = s.vkey(r.line)
	if l, hit := s.l1s[cu].Access(r.addr, r.write); hit {
		if !l.Perm.Allows(r.write) {
			r.permFault()
			return
		}
		if !r.write {
			r.finish()
			return
		}
	}
	if s.cfg.Kind == L1OnlyVirtual {
		s.eng.ScheduleEvent(s.cfg.Lat.PerCUTLB, r, stTLB)
		return
	}
	s.sendToBackend(cu, routeL2, r, stL2)
}

// vcL2 serves a request at its virtual L2 bank. A load's hit returns to
// the CU; a store's hit completes here, marking the page written for
// read-write synonym detection. The first miss on a line resolves it for
// every request merged behind it.
func (r *request) vcL2() {
	s := r.s
	l, hit := s.l2.Access(r.addr, r.write)
	switch {
	case hit && r.write:
		if !l.Perm.Allows(true) {
			s.fault("perm", &s.faults.PermFaults)
		} else {
			// An L2 hit under this address means it is the page's
			// leading VPN.
			s.fbt.MarkWrittenVPN(s.asid, r.line.Page())
		}
		r.finish()
	case hit:
		r.perm, r.filled = l.Perm, true
		if !l.Perm.Allows(false) {
			s.fault("perm", &s.faults.PermFaults)
			r.filled = false // the CU completes the load without the data
		}
		s.sendToCU(routeL2, r, stVCDeliver)
	default:
		if r.fetchLine() {
			s.send(routeL2IOMMU, r, stIOMMU)
		}
	}
}

// vcTranslated continues a virtual L2 miss with its translation (the IOMMU
// consulted its shared TLB, the optional FBT second level, and the PTW):
// check the leader's permission, then the FBT after its latency.
func (r *request) vcTranslated(res iommu.Result) {
	s := r.s
	if res.Fault {
		s.fault("page", &s.faults.PageFaults)
		r.lineReady(0, false)
		return
	}
	if !res.PTE.Perm.Allows(r.write) {
		s.fault("perm", &s.faults.PermFaults)
		r.lineReady(0, false)
		return
	}
	r.pte = res.PTE
	s.eng.ScheduleEvent(s.cfg.IOMMU.FBTLatency, r, stFBTCheck)
}

// fbtCheck runs the BT synonym check: fetch the line under this address,
// replay a synonym under its leading address, or fault a read-write
// synonym.
func (r *request) fbtCheck() {
	s, vpn := r.s, r.line.Page()
	outcome, view := s.fbt.Check(r.pte.PPN, s.asid, vpn, r.write)
	switch outcome {
	case fbt.Miss:
		s.fbt.Allocate(r.pte.PPN, s.asid, vpn, r.pte.Perm, r.write)
		r.perm = r.pte.Perm
		s.mem.Access(false, r, stVCFill)
	case fbt.Leading:
		// Page tracked under this VPN but the line missed in the L2:
		// fetch it.
		r.perm = view.Perm
		s.mem.Access(false, r, stVCFill)
	case fbt.Synonym:
		s.synonymReplays++
		if s.cfg.DynamicSynonymRemap {
			// The remap table is front-end state; the update rides a
			// message back to the CU.
			s.sendRemap(r.cu, vpn, view.LVPN)
		}
		r.view = view
		s.send(routeL2IOMMU, r, stSynBank) // response travels back to the L2
	case fbt.RWFault:
		s.fault("rw-synonym", &s.faults.RWSynonym)
		r.lineReady(0, false)
	}
}

// vcFill installs a fetched line in the virtual L2 under this request's
// address, updates the BT bit vector, and resolves the waiters.
func (r *request) vcFill() {
	s, key, perm := r.s, r.addr, r.perm
	if !s.l2.Probe(key) {
		s.l2.Fill(key, perm, s.asid, false)
		s.fbt.SetLine(r.pte.PPN, r.line.LineIndex())
		s.sampleL2Pages()
	}
	r.lineReady(perm, true)
}

// A synonym replay re-runs a read under the page's leading virtual
// address. Per §4.1, only addresses the bit vector says will hit are
// replayed into the L2; otherwise the directory/memory is accessed and the
// data is cached under the leading address. The original (non-leading)
// requesters complete with filled=false: the data lives only under the
// leading address.

// synLine is the replay's line under the leading virtual address.
func (r *request) synLine() memory.VAddr {
	return r.view.LVPN.Base() + memory.VAddr(r.line.Offset())
}

func (r *request) synKey() uint64 { return r.s.vkeyFor(r.synLine(), r.view.ASID) }

func (r *request) synL2() {
	s, lline := r.s, r.synLine()
	if r.view.BitVec&(1<<uint(lline.LineIndex())) != 0 {
		if _, hit := s.l2.Access(r.synKey(), false); hit {
			s.send(routeL2, r, stSynHit)
			return
		}
	}
	s.mem.Access(false, r, stSynFill)
}

func (r *request) synFill() {
	s, lline, lkey := r.s, r.synLine(), r.synKey()
	if !s.l2.Probe(lkey) {
		s.l2.Fill(lkey, r.view.Perm, r.view.ASID, false)
		s.fbt.SetLine(r.view.PPN, lline.LineIndex())
		s.sampleL2Pages()
	}
	r.lineReady(r.view.Perm, false)
}

// remapUpdate is the backend -> CU half of a dynamic synonym remap
// (sim.Handler). It can land after the request that caused it has retired
// and its record was reused, so it carries its own state, in a record of
// its own from the System's free list; delivering it returns the record.
type remapUpdate struct {
	s         *System
	cu        int
	vpn, lvpn memory.VPN
}

func (m *remapUpdate) Handle(uint64) {
	s := m.s
	s.remaps[m.cu].put(m.vpn, m.lvpn)
	s.remapFree = append(s.remapFree, m)
}

// sendRemap tells cu to redirect vpn to its leading page lvpn.
func (s *System) sendRemap(cu int, vpn, lvpn memory.VPN) {
	var m *remapUpdate
	if n := len(s.remapFree); n > 0 {
		m = s.remapFree[n-1]
		s.remapFree = s.remapFree[:n-1]
	} else {
		m = &remapUpdate{s: s}
	}
	m.cu, m.vpn, m.lvpn = cu, vpn, lvpn
	s.sendToCU(routeL2, m, 0)
}

// fillL1 installs a line into a CU's L1 and maintains its invalidation
// filter.
func (s *System) fillL1(cu int, line memory.VAddr, perm memory.Perm) {
	s.trackL1Fill(cu, line)
	s.l1s[cu].Fill(s.vkey(line), perm, s.asid, false)
}

// ---------------------------------------------------------------------------
// L1-only virtual caches: translation moves between the (virtual) L1 and
// the (physical) L2, through per-CU TLBs. The L1 stage is virtL1; a miss
// or store translates like the physical baseline, then continues here.

// l1onlyBackend sends a translated L1-only access to the physical L2:
// write-through/write-allocate stores, or a read whose fill is delivered
// back into the (virtual) L1.
func (r *request) l1onlyBackend(pte memory.PTE) {
	r.pte = pte
	r.addr = uint64(pte.PPN.Base() + memory.PAddr(r.line.Offset()))
	r.s.sendToBackend(r.cu, routeL2, r, stL2)
}
