// Package tlb models translation lookaside buffers: set-associative or
// fully-associative with LRU replacement, ASID-tagged entries, page and
// address-space invalidation, and an infinite mode used for the paper's
// "demand miss" and IDEAL MMU configurations. Optional lifetime hooks feed
// the appendix figure comparing TLB-entry residence against cache-line
// residence.
//
// A finite TLB keeps its entries in flat per-slot lanes indexed
// set*ways+way: a tag lane of VPNs, the LRU stamps, birth generations and
// ASIDs of flatmap.Sets, and a payload lane with the rest, so a lookup
// compares tags and an insert scans tags and stamps. Only a TLB that opts
// in with TrackLifetimes keeps each entry's insert cycle, in a lane of its
// own.
//
// Bulk invalidation (InvalidateAll / InvalidateASID) is epoch-based: each
// entry records the generation it was inserted under, a bulk invalidation
// bumps a generation counter and defers the physical work, and dead
// entries are skipped or reclaimed on next touch. Residency counts are
// maintained incrementally so Len() and the obs gauge stay exact without
// scanning. The infinite-mode maps are flatmap tables that reclaim dead
// slots on the probe path, so steady-state lookups and inserts are
// allocation-free. Bulk invalidations retire entries without firing
// OnEvict; the scan they replace survives only as the reference model of
// the package's differential tests.
package tlb

import (
	"fmt"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
	"vcache/internal/obs"
)

// Entry is a cached translation. Large entries cover a 2MB region: VPN and
// PPN hold the region base and Frame resolves individual 4KB pages.
type Entry struct {
	ASID  memory.ASID
	VPN   memory.VPN
	PPN   memory.PPN
	Perm  memory.Perm
	Large bool

	insertedAt uint64 // residence start, for the OnEvict lifetime (TrackLifetimes)
}

// Frame returns the physical frame for vpn, which must lie in the entry's
// reach (always true for the VPN a Lookup hit returned it for).
func (e Entry) Frame(vpn memory.VPN) memory.PPN {
	if !e.Large {
		return e.PPN
	}
	return e.PPN + memory.PPN(vpn-e.VPN)
}

// Config describes a TLB.
type Config struct {
	// Entries is the total entry count. Zero or negative means infinite.
	Entries int
	// Assoc is the set associativity. Zero means fully associative.
	Assoc int
}

// Infinite reports whether the configuration models an unbounded TLB.
func (c Config) Infinite() bool { return c.Entries <= 0 }

// Stats are the TLB's event counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Inserts    uint64
	Evictions  uint64
	Shootdowns uint64
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRatio returns misses / accesses.
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// asidCnt tracks one address space's live entries so InvalidateASID can
// account for them without a scan.
type asidCnt struct {
	n     int // live entries
	large int // of which 2MB entries
}

// slot is a finite-mode entry's payload: what a lookup reads only on a tag
// match or for the victim.
type slot struct {
	ppn   memory.PPN
	perm  memory.Perm
	large bool
}

// TLB is a translation lookaside buffer.
type TLB struct {
	cfg Config
	// Finite mode's per-slot lanes, indexed set*ways+way. A slot holds an
	// entry while its stamp in sets is nonzero; a tag is the bare VPN (a
	// 2MB entry's region base), matched together with the slot's ASID and
	// size, so the key is exact for every (asid, vpn, large).
	tags     []memory.VPN
	slots    []slot
	born     []uint64 // finite mode: insert cycles (TrackLifetimes only)
	sets     flatmap.Sets
	isInf    bool
	inf      flatmap.Map[Entry] // infinite mode: 4KB entries, packed (asid, vpn) keys
	infLarge flatmap.Map[Entry] // infinite mode: 2MB entries, keyed by region base
	large    int                // finite mode: resident 2MB entries (skip probe when 0)
	tick     uint64
	stats    Stats

	// Epoch invalidation state. An entry is live iff its born generation
	// survives every death mark in ep. Generations only advance on bulk
	// invalidations; normalize() rewinds everything before the uint32
	// counter can wrap. The infinite-mode maps share ep, so they reclaim
	// their own dead slots during probes.
	ep       flatmap.Epoch
	resident int                  // live entries (maintained, so Len is O(1))
	perASID  flatmap.Map[asidCnt] // keyed by uint64(asid)

	clock func() uint64 // TrackLifetimes only

	// OnEvict, if set, is called when a valid entry leaves the TLB
	// (replacement or page invalidation) with the entry and its residence
	// time in cycles, which reads 0 unless the TLB tracks lifetimes. Bulk
	// invalidations retire entries without it.
	OnEvict func(e Entry, lifetime uint64)
	// Trace, if set, receives a cycle-stamped "miss" event for every
	// lookup miss, with the missing VPN as the argument. A nil emitter
	// costs one branch, keeping Lookup allocation-free when tracing is off.
	Trace *obs.Emitter
}

// infKey packs a TLB key for the flat infinite-mode maps.
func infKey(asid memory.ASID, vpn memory.VPN) uint64 {
	return flatmap.Key(uint16(asid), uint64(vpn))
}

// New builds a TLB from cfg.
func New(cfg Config) *TLB {
	t := &TLB{cfg: cfg}
	if cfg.Infinite() {
		t.isInf = true
		t.inf.Init(&t.ep)
		t.infLarge.Init(&t.ep)
		return t
	}
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > cfg.Entries {
		assoc = cfg.Entries // fully associative
	}
	numSets := cfg.Entries / assoc
	if numSets < 1 {
		numSets = 1
	}
	t.sets.Init(&t.ep, numSets, assoc)
	t.tags = make([]memory.VPN, t.sets.Slots())
	t.slots = make([]slot, t.sets.Slots())
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// now returns the current cycle of a TLB that tracks lifetimes, else 0.
func (t *TLB) now() uint64 {
	if t.clock != nil {
		return t.clock()
	}
	return 0
}

// base returns the first slot of (asid, vpn)'s set.
func (t *TLB) base(asid memory.ASID, vpn memory.VPN) int {
	return t.sets.Base(uint64(vpn) ^ uint64(asid)<<13)
}

// entry builds the Entry held in slot i.
func (t *TLB) entry(i int) Entry {
	s := t.slots[i]
	e := Entry{ASID: memory.ASID(t.sets.ASID(i)), VPN: t.tags[i], PPN: s.ppn, Perm: s.perm, Large: s.large}
	if t.born != nil {
		e.insertedAt = t.born[i]
	}
	return e
}

// keyed reports whether slot i's entry, live or not, belongs to asid and
// has the given size; callers compare the tag first.
func (t *TLB) keyed(i int, asid memory.ASID, large bool) bool {
	return t.sets.ASID(i) == uint16(asid) && t.slots[i].large == large
}

// largeBase returns the 2MB-region base of vpn.
func largeBase(vpn memory.VPN) memory.VPN {
	return vpn &^ memory.VPN(memory.PagesPerLarge-1)
}

func (t *TLB) incCount(asid memory.ASID, large bool) {
	t.resident++
	c := t.perASID.Upsert(uint64(asid))
	c.n++
	if large {
		c.large++
	}
}

func (t *TLB) decCount(asid memory.ASID, large bool) {
	t.resident--
	c := t.perASID.Ref(uint64(asid))
	c.n--
	if large {
		c.large--
	}
	if c.n == 0 {
		t.perASID.Delete(uint64(asid))
	}
}

// bumpGen advances the generation counter, normalizing first when the next
// increment would wrap.
func (t *TLB) bumpGen() uint32 {
	if t.ep.AtMax() {
		t.normalize()
	}
	return t.ep.Bump()
}

// normalize physically drops dead entries and rewinds every generation to
// zero, making counter wraparound impossible to observe. Amortized cost is
// one structure walk per 2^32 bulk invalidations.
func (t *TLB) normalize() {
	if t.isInf {
		t.inf.Normalize()
		t.infLarge.Normalize()
	} else {
		t.sets.Normalize()
	}
	t.ep.Reset()
}

// find returns the slot of the live finite-mode entry for (asid, vpn,
// large), or -1, reclaiming a dead match on touch. vpn must be the region
// base for large entries.
func (t *TLB) find(asid memory.ASID, vpn memory.VPN, large bool) int {
	base := t.base(asid, vpn)
	for w, tag := range t.tags[base : base+t.sets.Ways()] {
		i := base + w
		if tag != vpn || !t.keyed(i, asid, large) {
			continue
		}
		if t.sets.Live(i) {
			return i
		}
		// Reclaim the dead slot on touch; a live entry with the same key
		// may still follow (inserted after the bulk invalidation into
		// another way).
		t.sets.Clear(i)
	}
	return -1
}

// Lookup searches for (asid, vpn), updating LRU state and hit/miss
// counters. Both 4KB entries and covering 2MB entries hit.
func (t *TLB) Lookup(asid memory.ASID, vpn memory.VPN) (Entry, bool) {
	t.tick++
	if t.isInf {
		// Infinite TLBs never evict by capacity, so LRU state is dead:
		// hits are a single flat-table probe with no write-back.
		if e, ok := t.inf.Get(infKey(asid, vpn)); ok {
			t.stats.Hits++
			return e, true
		}
		if t.infLarge.Len() > 0 {
			if e, ok := t.infLarge.Get(infKey(asid, largeBase(vpn))); ok {
				t.stats.Hits++
				return e, true
			}
		}
		t.stats.Misses++
		t.Trace.Emit("miss", uint64(vpn))
		return Entry{}, false
	}
	i := t.find(asid, vpn, false)
	if i < 0 && t.large > 0 {
		i = t.find(asid, largeBase(vpn), true)
	}
	if i >= 0 {
		t.sets.Touch(i, t.tick)
		t.stats.Hits++
		return t.entry(i), true
	}
	t.stats.Misses++
	t.Trace.Emit("miss", uint64(vpn))
	return Entry{}, false
}

// Probe reports whether a translation for (asid, vpn) is resident (4KB or
// covering 2MB entry) without disturbing LRU or counters.
func (t *TLB) Probe(asid memory.ASID, vpn memory.VPN) bool {
	if t.isInf {
		if _, ok := t.inf.Get(infKey(asid, vpn)); ok {
			return true
		}
		_, ok := t.infLarge.Get(infKey(asid, largeBase(vpn)))
		return ok
	}
	if t.find(asid, vpn, false) >= 0 {
		return true
	}
	return t.large > 0 && t.find(asid, largeBase(vpn), true) >= 0
}

// Insert installs a 4KB translation, evicting the LRU entry of the set if
// needed. Re-inserting an existing (asid, vpn) refreshes it in place.
func (t *TLB) Insert(asid memory.ASID, vpn memory.VPN, ppn memory.PPN, perm memory.Perm) {
	t.insert(Entry{ASID: asid, VPN: vpn, PPN: ppn, Perm: perm})
}

// InsertLarge installs a 2MB translation for the region with the given
// base VPN/PPN. A single entry then covers 512 pages (the TLB-reach
// benefit of large pages).
func (t *TLB) InsertLarge(asid memory.ASID, baseVPN memory.VPN, basePPN memory.PPN, perm memory.Perm) {
	t.insert(Entry{ASID: asid, VPN: largeBase(baseVPN), PPN: basePPN, Perm: perm, Large: true})
}

func (t *TLB) insert(e Entry) {
	t.tick++
	t.stats.Inserts++
	asid, vpn := e.ASID, e.VPN
	if t.isInf {
		e.insertedAt = t.now()
		m := &t.inf
		if e.Large {
			m = &t.infLarge
		}
		// Put reclaims a dead entry under the same key during its probe, so
		// a false return means the key was absent from the live view and the
		// residency count grows.
		if !m.Put(infKey(asid, vpn), e) {
			t.incCount(asid, e.Large)
		}
		return
	}
	base := t.base(asid, vpn)
	for w, tag := range t.tags[base : base+t.sets.Ways()] {
		if i := base + w; tag == vpn && t.keyed(i, asid, e.Large) && t.sets.Live(i) {
			// Refresh in place, keeping the residence start.
			t.sets.Fill(i, t.tick, uint16(asid))
			t.slots[i].ppn, t.slots[i].perm = e.PPN, e.Perm
			return
		}
	}
	i, free := t.sets.Victim(base)
	if !free {
		t.evict(i)
	}
	t.tags[i] = vpn
	t.sets.Fill(i, t.tick, uint16(asid))
	t.slots[i] = slot{ppn: e.PPN, perm: e.Perm, large: e.Large}
	if t.born != nil {
		t.born[i] = t.clock()
	}
	t.incCount(asid, e.Large)
	if e.Large {
		t.large++
	}
}

// evictNotify records an eviction and fires the lifetime hook. It does not
// touch residency state; callers remove the entry themselves.
func (t *TLB) evictNotify(e Entry) {
	t.stats.Evictions++
	if t.OnEvict != nil {
		t.OnEvict(e, t.now()-e.insertedAt)
	}
}

// evict removes the live finite-mode entry in slot i.
func (t *TLB) evict(i int) {
	e := t.entry(i)
	t.evictNotify(e)
	t.sets.Clear(i)
	if e.Large {
		t.large--
	}
	t.decCount(e.ASID, e.Large)
}

// dropInf removes an infinite-mode entry by key, reporting whether a live
// entry was evicted (a dead entry reclaimed by the probe was already
// accounted for when it died).
func (t *TLB) dropInf(m *flatmap.Map[Entry], k uint64) bool {
	e, ok := m.Delete(k)
	if !ok {
		return false
	}
	t.evictNotify(e)
	t.decCount(e.ASID, e.Large)
	return true
}

// InvalidatePage drops the entry translating (asid, vpn) if present —
// including a covering 2MB entry — returning whether one was dropped.
// Used for single-entry TLB shootdowns.
func (t *TLB) InvalidatePage(asid memory.ASID, vpn memory.VPN) bool {
	t.stats.Shootdowns++
	hit := false
	if t.isInf {
		if t.dropInf(&t.inf, infKey(asid, vpn)) {
			hit = true
		}
		if t.dropInf(&t.infLarge, infKey(asid, largeBase(vpn))) {
			hit = true
		}
		return hit
	}
	if i := t.find(asid, vpn, false); i >= 0 {
		t.evict(i)
		hit = true
	}
	if t.large > 0 {
		if i := t.find(asid, largeBase(vpn), true); i >= 0 {
			t.evict(i)
			hit = true
		}
	}
	return hit
}

// InvalidateAll flushes every entry (all-entry shootdown), returning how
// many live entries were dropped: one generation bump (or a table reset in
// infinite mode) retires everything at once.
func (t *TLB) InvalidateAll() int {
	t.stats.Shootdowns++
	n := t.resident
	if t.isInf {
		t.inf.Reset()
		t.infLarge.Reset()
		t.ep.ClearDead()
	} else if n > 0 {
		t.ep.MarkDeadAll(t.bumpGen())
	}
	if n > 0 {
		t.stats.Evictions += uint64(n)
		t.resident = 0
		t.large = 0
		t.perASID.Reset()
	}
	return n
}

// InvalidateASID flushes all entries belonging to one address space,
// returning how many were dropped: one generation mark on the address
// space retires them at once.
func (t *TLB) InvalidateASID(asid memory.ASID) int {
	t.stats.Shootdowns++
	c := t.perASID.Ref(uint64(asid))
	if c == nil {
		return 0
	}
	n, nLarge := c.n, c.large
	t.stats.Evictions += uint64(n)
	t.resident -= n
	if !t.isInf {
		t.large -= nLarge
	}
	t.perASID.Delete(uint64(asid))
	t.ep.MarkDeadASID(uint16(asid), t.bumpGen())
	return n
}

// Reset empties the TLB and zeroes its counters and clock, returning it to
// the state New, and TrackLifetimes if the owner called it, left it in. It
// keeps every lane and table, so it allocates nothing, and it fires no
// OnEvict.
func (t *TLB) Reset() {
	if t.isInf {
		t.inf.Reset()
		t.infLarge.Reset()
	} else {
		t.sets.Reset()
	}
	t.ep.Reset()
	t.large, t.resident, t.tick = 0, 0, 0
	t.stats = Stats{}
	t.perASID.Reset()
}

// TrackLifetimes makes the TLB stamp each entry with clock's cycle at its
// insert, so OnEvict reports real residence times. A finite TLB keeps the
// stamps in a lane that only a tracking TLB allocates. Call it before the
// first insert.
func (t *TLB) TrackLifetimes(clock func() uint64) {
	if t.resident != 0 {
		panic("tlb: TrackLifetimes on a TLB that already holds entries")
	}
	t.clock = clock
	if !t.isInf {
		t.born = make([]uint64, t.sets.Slots())
	}
}

// Len returns the number of live entries currently resident.
func (t *TLB) Len() int { return t.resident }

func (t *TLB) String() string {
	if t.cfg.Infinite() {
		return fmt.Sprintf("tlb{infinite, resident: %d}", t.Len())
	}
	return fmt.Sprintf("tlb{entries: %d, assoc: %d, resident: %d}", t.cfg.Entries, t.cfg.Assoc, t.Len())
}
