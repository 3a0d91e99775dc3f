package core

import (
	"vcache/internal/iommu"
	"vcache/internal/memory"
	"vcache/internal/sim"
)

// Batched translation front-end (Config.BatchedTranslation): a warp's
// whole coalesced line set enters the
// memory system in one AccessLines call instead of per-line Access calls.
// The set is grouped into page chunks (dedup within the warp), the per-CU
// TLB is probed once per distinct (ASID, VPN) via LookupSpan, hits are
// peeled inline and fanned back out to their lines, and the residual miss
// set goes to the IOMMU as one bulk submission sharing one walk per
// distinct page.
//
// All batch state is per-CU: frames and their scratch buffers live in the
// owning CU's pool, are touched only by that CU partition's events (the
// backend reads a frame's miss list inside TranslateBulk, strictly before
// the responses that let the CU recycle the frame), and recycle through the
// pool so steady-state batching allocates nothing. The schedule is
// deterministic but deliberately different from the per-line path —
// per-line TLB lookups and IOMMU arrivals land on different cycles — so the
// mode is opt-in and owned by SimVersion; see DESIGN.md.

// BatchStats counts batched-translation front-end activity, summed over
// CUs. IOMMU-side bulk counters live in iommu.Stats (BulkCalls/BulkMisses).
type BatchStats struct {
	Calls      uint64 // warp batches entering TranslateLines
	Lines      uint64 // coalesced lines those batches carried
	Chunks     uint64 // distinct-page chunks probed
	HitChunks  uint64 // chunks resolved inline (per-CU TLB or TLB2 span hit)
	InlineHits uint64 // lines those inline hits fanned back out to
}

// DedupRatio returns the fraction of per-line TLB probes that page-chunk
// dedup eliminated (1 - chunks/lines); 0 when no batches ran.
func (b BatchStats) DedupRatio() float64 {
	if b.Lines == 0 {
		return 0
	}
	return 1 - float64(b.Chunks)/float64(b.Lines)
}

// lineChunk is one distinct page of a batch frame: vpn plus how many of the
// frame's lines fall on it. Chunks form in first-appearance order of their
// pages (CoalesceLinesInto emits lines in first-touch order), so chunking
// is deterministic. The pte/fault fields carry the chunk's translation from
// whichever stage resolved it (inline span hit, TLB2, or IOMMU return) to
// resolveChunk.
type lineChunk struct {
	vpn   memory.VPN
	n     uint16
	hit   bool // resolved inline; excluded from the miss submission
	fault bool
	pte   memory.PTE
}

// batchFrame carries one warp memory instruction through the batched
// front end. lines is a copy of the warp's coalescing buffer (the warp may
// overwrite it next cycle); chunks and miss are reusable scratch. live
// counts unresolved chunks; the frame returns to its CU pool at zero.
type batchFrame struct {
	live   int
	write  bool
	done   func() // per-line completion, fired once per line
	lines  []memory.VAddr
	chunks []lineChunk
	miss   []memory.VPN // pages submitted to the IOMMU by this frame
}

// chunk groups the frame's lines into page chunks, in first-appearance
// order. Warps coalesce to at most a few tens of lines, so the linear scan
// beats any map and allocates nothing once the scratch has grown.
func (f *batchFrame) chunk() {
outer:
	for _, la := range f.lines {
		vpn := la.Page()
		for i := range f.chunks {
			if f.chunks[i].vpn == vpn {
				f.chunks[i].n++
				continue outer
			}
		}
		f.chunks = append(f.chunks, lineChunk{vpn: vpn, n: 1})
	}
	f.live = len(f.chunks)
}

// batchPool recycles batch frames for one CU. made counts frames ever
// allocated, bounding steady-state footprint to the CU's concurrently
// outstanding memory instructions.
type batchPool struct {
	free []*batchFrame
	made int
}

// enableBatching switches the warp issue path to warp-level AccessLines
// batches for the designs with a per-CU-TLB front end. For the other kinds
// the flag is a documented no-op: VirtualHierarchy translates after L2
// misses (line-granular by design) and IdealMMU has no translation to
// batch, so both keep the per-line issue path and stay bit-identical to
// unbatched runs. Called from New.
func (s *System) enableBatching() {
	if s.cfg.Kind != PhysicalBaseline && s.cfg.Kind != L1OnlyVirtual {
		return
	}
	s.batch = make([]batchPool, s.cfg.GPU.NumCUs)
	s.gpu.EnableBatchedIssue()
}

// acquireFrame pops (or grows) the CU's frame pool and loads it with a copy
// of the warp's line set. Allocation-free once the pool and the frame's
// scratch buffers reach steady state.
func (s *System) acquireFrame(cu int, lines []memory.VAddr, write bool, done func()) *batchFrame {
	p := &s.batch[cu]
	var f *batchFrame
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		f = &batchFrame{}
		p.made++
	}
	f.write, f.done = write, done
	f.lines = append(f.lines[:0], lines...)
	f.chunks = f.chunks[:0]
	f.miss = f.miss[:0]
	f.live = 0
	return f
}

// releaseFrame returns a fully-resolved frame to its CU pool.
func (s *System) releaseFrame(cu int, f *batchFrame) {
	f.done = nil
	s.batch[cu].free = append(s.batch[cu].free, f)
}

// releaseChunk retires one resolved chunk, recycling the frame when it was
// the last.
func (s *System) releaseChunk(cu int, f *batchFrame) {
	f.live--
	if f.live == 0 {
		s.releaseFrame(cu, f)
	}
}

// AccessLines implements gpu.BatchedPath: one warp memory instruction's
// whole coalesced line set enters the memory system together. Only reached
// after enableBatching armed the GPU's batched issue path, so the kind is
// PhysicalBaseline (TLB in front of the physical L1) or L1OnlyVirtual
// (virtual L1 first, then the TLB on the way to the physical L2).
func (s *System) AccessLines(cu int, lines []memory.VAddr, write bool, done func()) {
	f := s.acquireFrame(cu, lines, write, done)
	switch s.cfg.Kind {
	case PhysicalBaseline:
		s.cuEng(cu).Schedule(s.cfg.Lat.PerCUTLB, func() { s.TranslateLines(cu, f) })
	case L1OnlyVirtual:
		s.cuEng(cu).Schedule(s.cfg.Lat.L1Hit, func() { s.batchL1Only(cu, f) })
	default:
		panic("core: batched access on non-batched design")
	}
}

// TranslateLines is the batched translation entry point: group the frame's
// lines into page chunks, probe the per-CU TLB once per distinct page, peel
// the hits inline (their lines proceed to the cache path immediately), and
// hand the residual miss set to the TLB2/IOMMU stages. Runs at the CU
// partition, Lat.PerCUTLB after the batch was issued.
func (s *System) TranslateLines(cu int, f *batchFrame) {
	f.chunk()
	st := &s.cuStats[cu]
	st.batch.Calls++
	st.batch.Lines += uint64(len(f.lines))
	st.batch.Chunks += uint64(len(f.chunks))
	miss := s.probeChunks(cu, f)
	for ci := range f.chunks {
		if f.chunks[ci].hit {
			s.resolveChunk(cu, f, ci)
		}
	}
	if miss == 0 {
		return
	}
	if len(s.cuTLB2s) > 0 {
		s.cuEng(cu).Schedule(s.cfg.PerCUTLB2Latency, func() { s.batchTLB2(cu, f) })
		return
	}
	s.submitMisses(cu, f)
}

// probeChunks span-probes the per-CU TLB once per chunk — each span counts
// as the chunk's line count in the TLB's hit/miss/LRU bookkeeping, so
// aggregate TLB statistics match the per-line path — marking hits with
// their PTE. Returns the number of miss chunks.
func (s *System) probeChunks(cu int, f *batchFrame) int {
	t := s.cuTLBs[cu]
	st := &s.cuStats[cu]
	miss := 0
	for ci := range f.chunks {
		c := &f.chunks[ci]
		if e, ok := t.LookupSpan(s.asid, c.vpn, uint64(c.n)); ok {
			st.batch.HitChunks++
			st.batch.InlineHits += uint64(c.n)
			c.hit = true
			c.pte = memory.PTE{PPN: e.Frame(c.vpn), Perm: e.Perm, Valid: true, Large: e.Large}
		} else {
			miss++
		}
	}
	return miss
}

// batchTLB2 runs the residual miss chunks through the private second-level
// TLB (two-level designs only): span hits refill the first-level TLB and
// resolve inline; the rest go to the IOMMU.
func (s *System) batchTLB2(cu int, f *batchFrame) {
	t2 := s.cuTLB2s[cu]
	st := &s.cuStats[cu]
	for ci := range f.chunks {
		c := &f.chunks[ci]
		if c.hit {
			continue
		}
		if e, ok := t2.LookupSpan(s.asid, c.vpn, uint64(c.n)); ok {
			st.batch.HitChunks++
			st.batch.InlineHits += uint64(c.n)
			if e.Large {
				s.cuTLBs[cu].InsertLarge(s.asid, e.VPN, e.PPN, e.Perm)
			} else {
				s.cuTLBs[cu].Insert(s.asid, c.vpn, e.PPN, e.Perm)
			}
			c.hit = true
			c.pte = memory.PTE{PPN: e.Frame(c.vpn), Perm: e.Perm, Valid: true, Large: e.Large}
			s.resolveChunk(cu, f, ci)
		}
	}
	s.submitMisses(cu, f)
}

// submitMisses merges each unresolved chunk with any outstanding same-page
// request (chunk-granular TLB-miss MSHRs, same tlbPending map as the
// per-line path) and bulk-submits the pages this frame is first requester for: one
// CU→IOMMU message carries the whole deduplicated miss set, and the IOMMU
// shares one walk per distinct page across everything in flight.
func (s *System) submitMisses(cu int, f *batchFrame) {
	st := &s.cuStats[cu]
	for ci := range f.chunks {
		c := &f.chunks[ci]
		if c.hit {
			continue
		}
		if s.cfg.ProbeResidency {
			for _, la := range f.lines {
				if la.Page() == c.vpn {
					s.classifyTLBMiss(cu, la)
				}
			}
		}
		ci := ci
		k := chunkWaiter(func(r iommu.Result) {
			ch := &f.chunks[ci]
			ch.pte, ch.fault = r.PTE, r.Fault
			s.resolveChunk(cu, f, ci)
		})
		list, outstanding := s.tlbPending[cu][c.vpn]
		if outstanding {
			st.tlbMerges++
		} else {
			f.miss = append(f.miss, c.vpn)
		}
		if list == nil {
			list = st.waitList()
		}
		s.tlbPending[cu][c.vpn] = append(list, k)
	}
	if len(f.miss) == 0 {
		return
	}
	s.sendToBackend(cu, routeIOMMU, sim.Func(func() {
		s.io.TranslateBulk(s.asid, f.miss, func(i int, r iommu.Result) {
			// f.miss is only read here, on the backend, strictly before
			// the response message that lets the CU retire (and recycle)
			// the frame — the mailbox ordering makes that safe.
			vpn := f.miss[i]
			s.sendToCU(cu, routeIOMMU, sim.Func(func() { s.batchMissReturn(cu, vpn, r) }), 0)
		})
	}), 0)
}

// chunkWaiter adapts a batched chunk's continuation to tlbWaiter.
type chunkWaiter func(iommu.Result)

func (k chunkWaiter) resolved(r iommu.Result) { k(r) }

// batchMissReturn lands one page's bulk-translation result back at the CU:
// install the translation in the per-CU TLB(s), then resolve every chunk
// waiting on the page (the submitting chunk plus any that merged behind
// it). The drained waiter list recycles through the CU's pool.
func (s *System) batchMissReturn(cu int, vpn memory.VPN, r iommu.Result) {
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
	for _, w := range waiters {
		w.resolved(r)
	}
	if waiters != nil {
		clear(waiters)
		st := &s.cuStats[cu]
		st.waitPool = append(st.waitPool, waiters[:0])
	}
}

// resolveChunk completes one translated chunk: fault handling (counted per
// line, matching the per-line path's totals), then the fan-out of the
// chunk's lines into the physical cache path. Retires the chunk's share of
// the frame.
func (s *System) resolveChunk(cu int, f *batchFrame, ci int) {
	c := &f.chunks[ci]
	st := &s.cuStats[cu]
	switch {
	case c.fault:
		for i := uint16(0); i < c.n; i++ {
			s.fault("page", &st.faults.PageFaults)
			f.done()
		}
	case !c.pte.Perm.Allows(f.write):
		for i := uint16(0); i < c.n; i++ {
			s.fault("perm", &st.faults.PermFaults)
			f.done()
		}
	case s.cfg.Kind == PhysicalBaseline:
		base := c.pte.PPN.Base()
		for _, la := range f.lines {
			if la.Page() != c.vpn {
				continue
			}
			pa := base + memory.PAddr(la.Offset())
			s.newRequest(cu, la, f.write, f.done).physCacheAccess(pa.Line())
		}
	default: // L1OnlyVirtual: lines proceed to the physical L2
		for _, la := range f.lines {
			if la.Page() != c.vpn {
				continue
			}
			s.newRequest(cu, la, f.write, f.done).l1onlyBackend(c.pte)
		}
	}
	s.releaseChunk(cu, f)
}

// batchL1Only is the L1-only-virtual first stage, Lat.L1Hit after issue:
// every line tries the virtual L1 (reads that hit complete; writes update
// and always continue, write-through), then the residual lines — the ones
// that actually need a translation — compact in place and enter
// TranslateLines.
func (s *System) batchL1Only(cu int, f *batchFrame) {
	l1 := s.l1s[cu]
	st := &s.cuStats[cu]
	keep := f.lines[:0]
	for _, la := range f.lines {
		if f.write {
			if l, hit := l1.Access(s.vkey(la), true); hit && !l.Perm.Allows(true) {
				s.fault("perm", &st.faults.PermFaults)
				f.done()
				continue
			}
		} else {
			if l, hit := l1.Access(s.vkey(la), false); hit {
				if !l.Perm.Allows(false) {
					s.fault("perm", &st.faults.PermFaults)
				}
				f.done()
				continue
			}
		}
		keep = append(keep, la)
	}
	f.lines = keep
	if len(f.lines) == 0 {
		s.releaseFrame(cu, f)
		return
	}
	s.cuEng(cu).Schedule(s.cfg.Lat.PerCUTLB, func() { s.TranslateLines(cu, f) })
}
