// Package tlb models translation lookaside buffers: set-associative or
// fully-associative with LRU replacement, ASID-tagged entries, page and
// address-space invalidation, and an infinite mode used for the paper's
// "demand miss" and IDEAL MMU configurations. Optional lifetime hooks feed
// the appendix figure comparing TLB-entry residence against cache-line
// residence.
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

	valid      bool
	lru        uint64
	insertedAt uint64
	born       uint32 // generation at insertion (epoch invalidation)
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

// TLB is a translation lookaside buffer.
type TLB struct {
	cfg      Config
	sets     [][]Entry
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

	// Clock, if set, supplies the current cycle for lifetime tracking.
	Clock func() uint64
	// OnEvict, if set, is called when a valid entry leaves the TLB
	// (replacement or page invalidation) with the entry and its residence
	// time in cycles. Bulk invalidations retire entries without it.
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
	t.sets = make([][]Entry, numSets)
	for i := range t.sets {
		t.sets[i] = make([]Entry, assoc)
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

func (t *TLB) now() uint64 {
	if t.Clock != nil {
		return t.Clock()
	}
	return t.tick
}

func (t *TLB) setIndex(asid memory.ASID, vpn memory.VPN) int {
	h := uint64(vpn) ^ (uint64(asid) << 13)
	return int(h % uint64(len(t.sets)))
}

// largeBase returns the 2MB-region base of vpn.
func largeBase(vpn memory.VPN) memory.VPN {
	return vpn &^ memory.VPN(memory.PagesPerLarge-1)
}

// live reports whether a valid entry survived every bulk invalidation since
// it was inserted. Callers check valid themselves.
func (t *TLB) live(e *Entry) bool {
	return t.ep.Live(uint16(e.ASID), e.born)
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
		for _, set := range t.sets {
			for i := range set {
				if !set[i].valid {
					continue
				}
				if !t.live(&set[i]) {
					set[i].valid = false
				} else {
					set[i].born = 0
				}
			}
		}
	}
	t.ep.Reset()
}

// find returns the live finite-mode entry for (asid, vpn, large),
// reclaiming a dead match on touch. vpn must be the region base for large
// entries.
func (t *TLB) find(asid memory.ASID, vpn memory.VPN, large bool) *Entry {
	set := t.sets[t.setIndex(asid, vpn)]
	for i := range set {
		if set[i].valid && set[i].ASID == asid && set[i].VPN == vpn && set[i].Large == large {
			if !t.live(&set[i]) {
				// Reclaim the dead slot on touch; a live entry with the
				// same key may still follow (inserted after the bulk
				// invalidation into another way).
				set[i].valid = false
				continue
			}
			return &set[i]
		}
	}
	return nil
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
	if e := t.find(asid, vpn, false); e != nil {
		e.lru = t.tick
		t.stats.Hits++
		return *e, true
	}
	if t.large > 0 {
		if e := t.find(asid, largeBase(vpn), true); e != nil {
			e.lru = t.tick
			t.stats.Hits++
			return *e, true
		}
	}
	t.stats.Misses++
	t.Trace.Emit("miss", uint64(vpn))
	return Entry{}, false
}

// LookupSpan is the batched front-end's probe: one associative search for
// (asid, vpn) on behalf of n coalesced same-page lookups. Counters and the
// LRU clock advance exactly as n consecutive Lookup calls would — the span
// counts as n hits or n misses and leaves the entry most-recently-used at
// the same tick — but the set is searched once. A miss emits a single
// "miss" trace event for the whole span.
func (t *TLB) LookupSpan(asid memory.ASID, vpn memory.VPN, n uint64) (Entry, bool) {
	if n == 0 {
		return Entry{}, false
	}
	t.tick += n
	if t.isInf {
		if e, ok := t.inf.Get(infKey(asid, vpn)); ok {
			t.stats.Hits += n
			return e, true
		}
		if t.infLarge.Len() > 0 {
			if e, ok := t.infLarge.Get(infKey(asid, largeBase(vpn))); ok {
				t.stats.Hits += n
				return e, true
			}
		}
		t.stats.Misses += n
		t.Trace.Emit("miss", uint64(vpn))
		return Entry{}, false
	}
	if e := t.find(asid, vpn, false); e != nil {
		e.lru = t.tick
		t.stats.Hits += n
		return *e, true
	}
	if t.large > 0 {
		if e := t.find(asid, largeBase(vpn), true); e != nil {
			e.lru = t.tick
			t.stats.Hits += n
			return *e, true
		}
	}
	t.stats.Misses += n
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
	if t.find(asid, vpn, false) != nil {
		return true
	}
	if t.large > 0 && t.find(asid, largeBase(vpn), true) != nil {
		return true
	}
	return false
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
	e.valid = true
	e.lru = t.tick
	e.insertedAt = t.now()
	e.born = t.ep.Gen()
	asid, vpn := e.ASID, e.VPN
	if t.isInf {
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
	set := t.sets[t.setIndex(asid, vpn)]
	victim, vfree := 0, false
	for i := range set {
		li := &set[i]
		free := !li.valid || !t.live(li)
		if !free && li.ASID == asid && li.VPN == vpn && li.Large == e.Large {
			keep := li.insertedAt
			*li = e
			li.insertedAt = keep
			return
		}
		if free {
			victim, vfree = i, true
		} else if !vfree && li.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && t.live(&set[victim]) {
		t.evict(&set[victim])
	}
	set[victim] = e
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

func (t *TLB) evict(e *Entry) {
	t.evictNotify(*e)
	e.valid = false
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
	if e := t.find(asid, vpn, false); e != nil {
		t.evict(e)
		hit = true
	}
	if t.large > 0 {
		if e := t.find(asid, largeBase(vpn), true); e != nil {
			t.evict(e)
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

// Len returns the number of live entries currently resident.
func (t *TLB) Len() int { return t.resident }

func (t *TLB) String() string {
	if t.cfg.Infinite() {
		return fmt.Sprintf("tlb{infinite, resident: %d}", t.Len())
	}
	return fmt.Sprintf("tlb{entries: %d, assoc: %d, resident: %d}", t.cfg.Entries, t.cfg.Assoc, t.Len())
}
