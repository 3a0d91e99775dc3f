package fbt

import (
	"vcache/internal/flatmap"
	"vcache/internal/memory"
	"vcache/internal/obs"
)

// The reference model of the differential tests: the FBT as it stood before
// its backward table moved into flat per-slot lanes, with one []refBTEntry
// slice per set, kept unchanged apart from the renames. Types and helpers
// the package still defines unchanged are shared.

type refBTEntry struct {
	View
	valid      bool
	locked     bool
	synonymUse bool // a non-leading access has touched this page
	lru        uint64
	born       uint32 // generation at allocation (epoch invalidation)
}

// refFBT is the forward-backward table.
type refFBT struct {
	cfg  Config
	sets [][]refBTEntry
	ft   flatmap.Map[int32] // packed (asid, lvpn) -> global BT way index
	tick uint64
	st   Stats

	// Epoch invalidation state: an entry is live iff its born generation
	// survives every death mark in ep. FT entries are born at the same
	// generation as the BT entry they point to, so both die together and
	// the FT reclaims its own residue on the probe path. normalize()
	// rewinds the generations before the counter can wrap.
	ep      flatmap.Epoch
	live    int              // live entries (maintained, so Len is O(1))
	perASID flatmap.Map[int] // keyed by uint64(asid)

	// OnEvict observes entries leaving the BT (capacity eviction,
	// shootdown or FlushAll). The owner must invalidate the page's data in
	// the virtual caches: L2 lines per the bit vector, L1s via the
	// invalidation filters. FlushASID retires entries without it.
	OnEvict func(v View)

	// Trace, if set, receives cycle-stamped "probe.forwarded" and
	// "probe.filtered" events for coherence probes (FilterProbe), with the
	// probed physical address as the argument. Nil means tracing is off.
	Trace *obs.Emitter
}

// New builds an refFBT.
func newRefFBT(cfg Config) *refFBT {
	if cfg.Assoc <= 0 || cfg.Assoc > cfg.Entries {
		cfg.Assoc = cfg.Entries
	}
	sets := cfg.Entries / cfg.Assoc
	if sets < 1 {
		sets = 1
	}
	f := &refFBT{cfg: cfg}
	f.sets = make([][]refBTEntry, sets)
	for i := range f.sets {
		f.sets[i] = make([]refBTEntry, cfg.Assoc)
	}
	f.ft.Init(&f.ep)
	// Presize the FT for the BT's capacity: steady-state allocations then
	// never grow the table, so the insert path stays allocation-free.
	f.ft.Grow(sets * cfg.Assoc)
	return f
}

// Config returns the table's configuration.
func (f *refFBT) Config() Config { return f.cfg }

// Stats returns a copy of the counters.
func (f *refFBT) Stats() Stats { return f.st }

func (f *refFBT) setIndex(ppn memory.PPN) int {
	return int(uint64(ppn) % uint64(len(f.sets)))
}

// entryAt resolves a global way index (set*assoc + way) from the FT.
func (f *refFBT) entryAt(idx int32) *refBTEntry {
	return &f.sets[int(idx)/f.cfg.Assoc][int(idx)%f.cfg.Assoc]
}

// liveE reports whether a valid entry survived every bulk flush since it
// was allocated. Callers check valid themselves.
func (f *refFBT) liveE(e *refBTEntry) bool {
	return f.ep.Live(uint16(e.ASID), e.born)
}

// reclaim frees a dead entry's BT slot. Its FT entry (if not already
// overwritten by a newer allocation) was born at the same generation, so it
// is equally dead and the FT reclaims it on its own probe path.
func (f *refFBT) reclaim(e *refBTEntry) {
	e.valid = false
}

// bumpGen advances the generation counter, normalizing first when the next
// increment would wrap.
func (f *refFBT) bumpGen() uint32 {
	if f.ep.AtMax() {
		f.normalize()
	}
	return f.ep.Bump()
}

// normalize physically drops dead entries and rewinds every generation to
// zero; one table walk per 2^32 bulk flushes.
func (f *refFBT) normalize() {
	for si := range f.sets {
		set := f.sets[si]
		for i := range set {
			if !set[i].valid {
				continue
			}
			if !f.liveE(&set[i]) {
				f.reclaim(&set[i])
			} else {
				set[i].born = 0
			}
		}
	}
	f.ft.Normalize()
	f.ep.Reset()
}

func (f *refFBT) findPPN(ppn memory.PPN) *refBTEntry {
	set := f.sets[f.setIndex(ppn)]
	for i := range set {
		if set[i].valid && set[i].PPN == ppn {
			if !f.liveE(&set[i]) {
				// Reclaim on touch; a live entry for the same PPN may still
				// follow (allocated after the flush into another way).
				f.reclaim(&set[i])
				continue
			}
			return &set[i]
		}
	}
	return nil
}

// ftGet returns the live BT entry whose leading virtual page is (asid,
// vpn), letting the flat table reclaim dead residue on its probe path.
func (f *refFBT) ftGet(asid memory.ASID, vpn memory.VPN) *refBTEntry {
	idx, ok := f.ft.Get(ftKey(asid, vpn))
	if !ok {
		return nil
	}
	e := f.entryAt(idx)
	if !e.valid || e.ASID != asid || e.LVPN != vpn || !f.liveE(e) {
		return nil
	}
	return e
}

// LookupPPN returns the entry for ppn, if present (reverse translation for
// coherence, and the synonym check). Counted as a BT lookup.
func (f *refFBT) LookupPPN(ppn memory.PPN) (View, bool) {
	f.st.PPNLookups++
	if e := f.findPPN(ppn); e != nil {
		f.st.PPNHits++
		f.tick++
		e.lru = f.tick
		return e.View, true
	}
	return View{}, false
}

// Check classifies an access that missed the virtual caches: the virtual
// address vpn was translated to ppn; is the page already cached under a
// leading virtual address? Check updates written/synonym state and
// detects read-write synonyms per the paper's conservative rule: fault on
// a synonymous access to a previously-written page, and on a write to a
// page previously accessed through a synonym.
func (f *refFBT) Check(ppn memory.PPN, asid memory.ASID, vpn memory.VPN, write bool) (Outcome, View) {
	f.st.PPNLookups++
	e := f.findPPN(ppn)
	if e == nil {
		return Miss, View{}
	}
	f.st.PPNHits++
	f.tick++
	e.lru = f.tick
	if e.ASID == asid && e.LVPN == vpn {
		if write {
			if e.synonymUse {
				f.st.RWSynonymFaults++
				return RWFault, e.View
			}
			e.Written = true
		}
		return Leading, e.View
	}
	// Non-leading (synonym) access.
	f.st.SynonymAccesses++
	if write || e.Written {
		f.st.RWSynonymFaults++
		return RWFault, e.View
	}
	e.synonymUse = true
	return Synonym, e.View
}

// Allocate installs an entry making (asid, vpn) the leading virtual page
// for ppn. The set's LRU victim, if valid, is evicted (OnEvict fires so the
// owner can invalidate cached data). Allocating over an existing ppn entry
// is a programming error and panics: callers must Check first.
func (f *refFBT) Allocate(ppn memory.PPN, asid memory.ASID, vpn memory.VPN, perm memory.Perm, written bool) View {
	if f.findPPN(ppn) != nil {
		panic("fbt: Allocate for resident PPN; Check first")
	}
	f.st.Allocations++
	f.tick++
	si := f.setIndex(ppn)
	set := f.sets[si]
	victim := -1
	for i := range set {
		if !set[i].valid || !f.liveE(&set[i]) {
			victim = i
			break
		}
		if set[i].locked {
			continue
		}
		if victim < 0 || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if victim < 0 {
		panic("fbt: all ways locked")
	}
	if set[victim].valid {
		if f.liveE(&set[victim]) {
			f.evict(&set[victim])
		} else {
			f.reclaim(&set[victim])
		}
	}
	set[victim] = refBTEntry{
		View:  View{PPN: ppn, ASID: asid, LVPN: vpn, Perm: perm, Written: written},
		valid: true,
		lru:   f.tick,
		born:  f.ep.Gen(),
	}
	f.ft.Put(ftKey(asid, vpn), int32(si*f.cfg.Assoc+victim))
	f.live++
	p := f.perASID.Upsert(uint64(asid))
	*p++
	return set[victim].View
}

func (f *refFBT) evict(e *refBTEntry) {
	f.st.Evictions++
	f.ft.Delete(ftKey(e.ASID, e.LVPN))
	e.valid = false
	f.live--
	p := f.perASID.Ref(uint64(e.ASID))
	*p--
	if *p == 0 {
		f.perASID.Delete(uint64(e.ASID))
	}
	if f.OnEvict != nil {
		f.OnEvict(e.View)
	}
}

// SetLine marks line idx (0..31) of ppn's page as cached in the L2.
func (f *refFBT) SetLine(ppn memory.PPN, idx int) bool {
	if e := f.findPPN(ppn); e != nil {
		e.BitVec |= 1 << uint(idx)
		return true
	}
	return false
}

// ClearLine clears line idx for the page whose leading virtual page is
// (asid, vpn) — the FT path used on L2 evictions, which carry virtual
// addresses. It reports whether an entry was found.
func (f *refFBT) ClearLine(asid memory.ASID, vpn memory.VPN, idx int) bool {
	if e := f.ftGet(asid, vpn); e != nil {
		e.BitVec &^= 1 << uint(idx)
		return true
	}
	return false
}

// MarkWrittenVPN records a write observed at the L2 under a leading
// virtual page (L2 write hits carry no physical address; the FT resolves
// them).
func (f *refFBT) MarkWrittenVPN(asid memory.ASID, vpn memory.VPN) {
	if e := f.ftGet(asid, vpn); e != nil {
		e.Written = true
	}
}

// TranslateVPN consults the FT as a second-level TLB: given (asid, vpn), it
// returns the matching physical page if vpn is a leading virtual page
// with a live BT entry. This is the paper's "VC With OPT" path that removes
// most page-table walks after shared-TLB misses.
func (f *refFBT) TranslateVPN(asid memory.ASID, vpn memory.VPN) (memory.PPN, memory.Perm, bool) {
	if e := f.ftGet(asid, vpn); e != nil {
		f.st.SecondaryTLBHits++
		f.tick++
		e.lru = f.tick
		return e.PPN, e.Perm, true
	}
	f.st.SecondaryTLBMiss++
	return 0, 0, false
}

// Shootdown handles a single-entry TLB shootdown for (asid, vpn). If the
// page has a live BT entry it is locked, evicted (OnEvict drives the cache
// invalidations), and the shootdown is acknowledged; otherwise the FT
// filters the request. It reports whether invalidation work was needed.
func (f *refFBT) Shootdown(asid memory.ASID, vpn memory.VPN) bool {
	e := f.ftGet(asid, vpn)
	if e == nil {
		f.st.ShootdownsFiltered++
		return false
	}
	f.st.ShootdownsApplied++
	e.locked = true
	f.evict(e)
	e.locked = false
	return true
}

// FilterProbe implements the BT's coherence-filter role: a physical-address
// probe from the directory/CPU is forwarded to the GPU caches only when
// the BT holds the page. It returns the leading virtual address (and its
// address space) of the probed line when forwarding is needed.
func (f *refFBT) FilterProbe(pa memory.PAddr) (memory.VAddr, memory.ASID, bool) {
	e := f.findPPN(pa.Page())
	if e == nil {
		f.st.CoherenceFiltered++
		f.Trace.Emit("probe.filtered", uint64(pa))
		return 0, 0, false
	}
	// A probe for a line the L2 doesn't hold and that can't be in the L1s
	// either (never cached) is also filtered via the bit vector when clear.
	idx := pa.LineIndex()
	if e.BitVec&(1<<uint(idx)) == 0 {
		f.st.CoherenceFiltered++
		f.Trace.Emit("probe.filtered", uint64(pa))
		return 0, 0, false
	}
	f.st.CoherenceForwarded++
	f.Trace.Emit("probe.forwarded", uint64(pa))
	va := e.LVPN.Base() + memory.VAddr(uint64(pa)&(memory.PageSize-1))
	return va, e.ASID, true
}

// FlushAll evicts every entry (all-entry shootdown: full cache flush) one
// by one through OnEvict, returning the live count dropped.
func (f *refFBT) FlushAll() int {
	n := f.live
	for si := range f.sets {
		set := f.sets[si]
		for i := range set {
			if set[i].valid && f.liveE(&set[i]) {
				f.evict(&set[i])
			}
		}
	}
	return n
}

// FlushASID retires every entry belonging to one address space (ASID
// rollover), returning the count dropped. One generation mark retires
// them without OnEvict; the dead entries — BT slots and FT residue alike —
// are reclaimed when a probe next walks over them.
func (f *refFBT) FlushASID(asid memory.ASID) int {
	p := f.perASID.Ref(uint64(asid))
	if p == nil {
		return 0
	}
	n := *p
	f.st.Evictions += uint64(n)
	f.live -= n
	f.perASID.Delete(uint64(asid))
	f.ep.MarkDeadASID(uint16(asid), f.bumpGen())
	return n
}

// Len returns the number of live entries.
func (f *refFBT) Len() int { return f.live }

// ASIDResident returns the live entry count for one address space.
func (f *refFBT) ASIDResident(asid memory.ASID) int {
	if p := f.perASID.Ref(uint64(asid)); p != nil {
		return *p
	}
	return 0
}

// Entry returns the entry for ppn without counting a lookup (test/debug).
func (f *refFBT) Entry(ppn memory.PPN) (View, bool) {
	if e := f.findPPN(ppn); e != nil {
		return e.View, true
	}
	return View{}, false
}
