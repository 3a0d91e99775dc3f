package tlb

import (
	"vcache/internal/flatmap"
	"vcache/internal/memory"
	"vcache/internal/obs"
)

// The reference model of the differential tests: the TLB as it stood before
// its finite mode moved into flat per-slot lanes, with one []refEntry slice
// per set, kept unchanged apart from the renames and from now, which reads
// 0 without a clock because only a TLB that tracks lifetimes stamps them.
// Types and helpers the package still defines unchanged are shared.

// refEntry is a cached translation. Large entries cover a 2MB region: VPN and
// PPN hold the region base and Frame resolves individual 4KB pages.
type refEntry struct {
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
func (e refEntry) Frame(vpn memory.VPN) memory.PPN {
	if !e.Large {
		return e.PPN
	}
	return e.PPN + memory.PPN(vpn-e.VPN)
}

// refTLB is a translation lookaside buffer.
type refTLB struct {
	cfg      Config
	sets     [][]refEntry
	isInf    bool
	inf      flatmap.Map[refEntry] // infinite mode: 4KB entries, packed (asid, vpn) keys
	infLarge flatmap.Map[refEntry] // infinite mode: 2MB entries, keyed by region base
	large    int                   // finite mode: resident 2MB entries (skip probe when 0)
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
	// OnEvict, if set, is called when a valid entry leaves the refTLB
	// (replacement or page invalidation) with the entry and its residence
	// time in cycles. Bulk invalidations retire entries without it.
	OnEvict func(e refEntry, lifetime uint64)
	// Trace, if set, receives a cycle-stamped "miss" event for every
	// lookup miss, with the missing VPN as the argument. A nil emitter
	// costs one branch, keeping Lookup allocation-free when tracing is off.
	Trace *obs.Emitter
}

// New builds a refTLB from cfg.
func newRefTLB(cfg Config) *refTLB {
	t := &refTLB{cfg: cfg}
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
	t.sets = make([][]refEntry, numSets)
	for i := range t.sets {
		t.sets[i] = make([]refEntry, assoc)
	}
	return t
}

// Config returns the refTLB's configuration.
func (t *refTLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *refTLB) Stats() Stats { return t.stats }

func (t *refTLB) now() uint64 {
	if t.Clock != nil {
		return t.Clock()
	}
	return 0
}

func (t *refTLB) setIndex(asid memory.ASID, vpn memory.VPN) int {
	h := uint64(vpn) ^ (uint64(asid) << 13)
	return int(h % uint64(len(t.sets)))
}

// live reports whether a valid entry survived every bulk invalidation since
// it was inserted. Callers check valid themselves.
func (t *refTLB) live(e *refEntry) bool {
	return t.ep.Live(uint16(e.ASID), e.born)
}

func (t *refTLB) incCount(asid memory.ASID, large bool) {
	t.resident++
	c := t.perASID.Upsert(uint64(asid))
	c.n++
	if large {
		c.large++
	}
}

func (t *refTLB) decCount(asid memory.ASID, large bool) {
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
func (t *refTLB) bumpGen() uint32 {
	if t.ep.AtMax() {
		t.normalize()
	}
	return t.ep.Bump()
}

// normalize physically drops dead entries and rewinds every generation to
// zero, making counter wraparound impossible to observe. Amortized cost is
// one structure walk per 2^32 bulk invalidations.
func (t *refTLB) normalize() {
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
func (t *refTLB) find(asid memory.ASID, vpn memory.VPN, large bool) *refEntry {
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
func (t *refTLB) Lookup(asid memory.ASID, vpn memory.VPN) (refEntry, bool) {
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
		return refEntry{}, false
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
	return refEntry{}, false
}

// Probe reports whether a translation for (asid, vpn) is resident (4KB or
// covering 2MB entry) without disturbing LRU or counters.
func (t *refTLB) Probe(asid memory.ASID, vpn memory.VPN) bool {
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
func (t *refTLB) Insert(asid memory.ASID, vpn memory.VPN, ppn memory.PPN, perm memory.Perm) {
	t.insert(refEntry{ASID: asid, VPN: vpn, PPN: ppn, Perm: perm})
}

// InsertLarge installs a 2MB translation for the region with the given
// base VPN/PPN. A single entry then covers 512 pages (the refTLB-reach
// benefit of large pages).
func (t *refTLB) InsertLarge(asid memory.ASID, baseVPN memory.VPN, basePPN memory.PPN, perm memory.Perm) {
	t.insert(refEntry{ASID: asid, VPN: largeBase(baseVPN), PPN: basePPN, Perm: perm, Large: true})
}

func (t *refTLB) insert(e refEntry) {
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
func (t *refTLB) evictNotify(e refEntry) {
	t.stats.Evictions++
	if t.OnEvict != nil {
		t.OnEvict(e, t.now()-e.insertedAt)
	}
}

func (t *refTLB) evict(e *refEntry) {
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
func (t *refTLB) dropInf(m *flatmap.Map[refEntry], k uint64) bool {
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
// Used for single-entry refTLB shootdowns.
func (t *refTLB) InvalidatePage(asid memory.ASID, vpn memory.VPN) bool {
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
func (t *refTLB) InvalidateAll() int {
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
func (t *refTLB) InvalidateASID(asid memory.ASID) int {
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
func (t *refTLB) Len() int { return t.resident }
