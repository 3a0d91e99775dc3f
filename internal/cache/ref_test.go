package cache

import (
	"fmt"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// The reference model of the differential tests: the cache as it stood
// before its lines moved into flat per-slot lanes, with one []refLine slice
// per set, kept unchanged apart from the renames and from now, which reads
// 0 without a clock because only a cache that tracks lifetimes stamps
// them. Types and helpers the package still defines unchanged are shared.

// refLine is one cache line's metadata.
type refLine struct {
	Addr  uint64 // line-aligned address (virtual or physical per owner)
	Valid bool
	Dirty bool
	Perm  memory.Perm // page permission, used by virtual caches
	ASID  memory.ASID

	lru        uint64
	insertedAt uint64
	lastAccess uint64
	born       uint32 // generation at fill (epoch invalidation)
}

// ActiveLifetime returns lastAccess - insertedAt, the paper's definition of
// a line's active lifetime.
func (l refLine) ActiveLifetime() uint64 { return l.lastAccess - l.insertedAt }

// InsertedAt returns the cycle the line was filled.
func (l refLine) InsertedAt() uint64 { return l.insertedAt }

// LastAccess returns the cycle of the line's most recent hit (or fill).
func (l refLine) LastAccess() uint64 { return l.lastAccess }

// refCache is a set-associative cache.
type refCache struct {
	cfg       Config
	sets      [][]refLine
	lineMask  uint64
	lineShift uint
	tick      uint64
	stats     Stats

	// Epoch invalidation state: a line is live iff its born generation
	// survives every death mark in ep. normalize() rewinds the generations
	// before the counter can wrap.
	ep       flatmap.Epoch
	resident int                  // live lines (maintained, so Resident is O(1))
	dirty    int                  // live dirty lines
	perASID  flatmap.Map[asidCnt] // keyed by uint64(asid)

	// Page counts (TrackPages): live lines per 4KB page, over every
	// address space and per space (asidCnt.pages), since one physical page
	// can hold lines of several spaces. Emptied per-space maps recycle
	// through pageMaps, so a fresh ASID reuses a warm table.
	trackPages bool
	pageLines  flatmap.Map[int32] // page -> live lines
	pageMaps   []*flatmap.Map[int32]
	keys       []uint64 // reused key buffer for settling

	// Clock, if set, supplies the current cycle for lifetime tracking.
	Clock func() uint64
	// OnEvict, if set, observes every line leaving the cache by capacity
	// eviction or line/page invalidation. Dirty lines need writing back by
	// the owner. Bulk invalidations retire lines without it.
	OnEvict func(l refLine)
}

// New builds a cache from cfg. LineBytes must be a power of two.
func newRefCache(cfg Config) *refCache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a positive power of two", cfg.LineBytes))
	}
	if cfg.Assoc <= 0 {
		panic("cache: associativity must be positive")
	}
	c := &refCache{cfg: cfg, lineMask: ^uint64(cfg.LineBytes - 1)}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	sets := cfg.Sets()
	c.sets = make([][]refLine, sets)
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Assoc)
	}
	return c
}

// Config returns the cache's configuration.
func (c *refCache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *refCache) Stats() Stats { return c.stats }

func (c *refCache) now() uint64 {
	if c.Clock != nil {
		return c.Clock()
	}
	return 0
}

// LineAddr returns the line-aligned address of addr.
func (c *refCache) LineAddr(addr uint64) uint64 { return addr & c.lineMask }

// Bank returns the bank index for addr (hash of line address).
func (c *refCache) Bank(addr uint64) int {
	if c.cfg.Banks <= 1 {
		return 0
	}
	return int((addr >> c.lineShift) % uint64(c.cfg.Banks))
}

func (c *refCache) setIndex(addr uint64) int {
	return int((addr >> c.lineShift) % uint64(len(c.sets)))
}

// live reports whether a valid line survived every bulk invalidation since
// it was filled. Callers check Valid themselves.
func (c *refCache) live(l *refLine) bool {
	return c.ep.Live(uint16(l.ASID), l.born)
}

func (c *refCache) incCount(asid memory.ASID, addr uint64, dirty bool) {
	c.resident++
	ac := c.perASID.Upsert(uint64(asid))
	ac.n++
	if dirty {
		c.dirty++
		ac.dirty++
	}
	if c.trackPages {
		if ac.pages == nil {
			ac.pages = c.pageMap()
		}
		page := addr >> memory.PageShift
		*ac.pages.Upsert(page)++
		*c.pageLines.Upsert(page)++
	}
}

func (c *refCache) decCount(asid memory.ASID, addr uint64, dirty bool) {
	c.resident--
	ac := c.perASID.Ref(uint64(asid))
	ac.n--
	if dirty {
		c.dirty--
		ac.dirty--
	}
	if c.trackPages {
		page := addr >> memory.PageShift
		dropLines(ac.pages, page, 1)
		dropLines(&c.pageLines, page, 1)
	}
	if ac.n == 0 {
		if ac.pages != nil {
			c.releasePageMap(ac.pages)
		}
		c.perASID.Delete(uint64(asid))
	}
}

// pageMap returns an empty per-space page map, recycled when one is free.
func (c *refCache) pageMap() *flatmap.Map[int32] {
	if n := len(c.pageMaps); n > 0 {
		m := c.pageMaps[n-1]
		c.pageMaps = c.pageMaps[:n-1]
		return m
	}
	return new(flatmap.Map[int32])
}

// releasePageMap empties a per-space page map and keeps it for reuse.
func (c *refCache) releasePageMap(m *flatmap.Map[int32]) {
	m.Reset()
	c.pageMaps = append(c.pageMaps, m)
}

// settlePages takes a retired space's lines off the page counts and
// recycles its page map: O(pages the space held).
func (c *refCache) settlePages(m *flatmap.Map[int32]) {
	c.keys = m.AppendKeys(c.keys[:0])
	for _, page := range c.keys {
		n, _ := m.Get(page)
		dropLines(&c.pageLines, page, n)
	}
	c.releasePageMap(m)
}

// markDirty records a clean-to-dirty transition on a live line.
func (c *refCache) markDirty(l *refLine) {
	if l.Dirty {
		return
	}
	l.Dirty = true
	c.dirty++
	c.perASID.Ref(uint64(l.ASID)).dirty++
}

// bumpGen advances the generation counter, normalizing first when the next
// increment would wrap.
func (c *refCache) bumpGen() uint32 {
	if c.ep.AtMax() {
		c.normalize()
	}
	return c.ep.Bump()
}

// normalize physically drops dead lines and rewinds every generation to
// zero; one full walk per 2^32 bulk invalidations.
func (c *refCache) normalize() {
	for _, set := range c.sets {
		for i := range set {
			if !set[i].Valid {
				continue
			}
			if !c.live(&set[i]) {
				set[i].Valid = false
			} else {
				set[i].born = 0
			}
		}
	}
	c.ep.Reset()
}

func (c *refCache) find(addr uint64) *refLine {
	la := c.LineAddr(addr)
	set := c.sets[c.setIndex(addr)]
	for i := range set {
		if set[i].Valid && set[i].Addr == la {
			if !c.live(&set[i]) {
				// Reclaim the dead slot on touch; a live line with the same
				// address may still follow (filled after the bulk
				// invalidation into another way).
				set[i].Valid = false
				continue
			}
			return &set[i]
		}
	}
	return nil
}

// Access performs a load or store lookup. On a hit it refreshes LRU and
// (for write-back stores) dirties the line. It returns the hitting line
// metadata and whether it hit. Store misses never allocate here; callers
// use Fill after fetching data (write-back) or skip allocation entirely
// (write-through no-allocate).
func (c *refCache) Access(addr uint64, write bool) (refLine, bool) {
	c.tick++
	if l := c.find(addr); l != nil {
		l.lru = c.tick
		l.lastAccess = c.now()
		if write {
			c.stats.WriteHits++
			if c.cfg.Policy == WriteBack {
				c.markDirty(l)
			}
		} else {
			c.stats.ReadHits++
		}
		return *l, true
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return refLine{}, false
}

// Probe reports whether addr's line is resident, without side effects.
func (c *refCache) Probe(addr uint64) bool { return c.find(addr) != nil }

// Get returns the line metadata for addr without side effects.
func (c *refCache) Get(addr uint64) (refLine, bool) {
	if l := c.find(addr); l != nil {
		return *l, true
	}
	return refLine{}, false
}

// Fill installs addr's line with the given permission and ASID, evicting
// the set's LRU victim if necessary. If dirty is true the new line starts
// dirty (write-allocate store). The evicted line, if any, is passed to
// OnEvict and also returned.
func (c *refCache) Fill(addr uint64, perm memory.Perm, asid memory.ASID, dirty bool) (evicted refLine, evictedValid bool) {
	c.tick++
	c.stats.Fills++
	la := c.LineAddr(addr)
	set := c.sets[c.setIndex(addr)]
	victim, vfree := 0, false
	for i := range set {
		li := &set[i]
		free := !li.Valid || !c.live(li)
		if !free && li.Addr == la {
			// Refresh in place (e.g. racing fills).
			li.lru = c.tick
			li.lastAccess = c.now()
			li.Perm = perm
			if dirty {
				c.markDirty(li)
			}
			return refLine{}, false
		}
		if free {
			victim, vfree = i, true
		} else if !vfree && li.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].Valid && c.live(&set[victim]) {
		evicted = set[victim]
		evictedValid = true
		c.evict(&set[victim])
	}
	now := c.now()
	set[victim] = refLine{Addr: la, Valid: true, Dirty: dirty, Perm: perm, ASID: asid, lru: c.tick, insertedAt: now, lastAccess: now, born: c.ep.Gen()}
	c.incCount(asid, la, dirty)
	return evicted, evictedValid
}

func (c *refCache) evict(l *refLine) {
	c.stats.Evictions++
	if l.Dirty {
		c.stats.Writebacks++
	}
	if c.OnEvict != nil {
		c.OnEvict(*l)
	}
	l.Valid = false
	c.decCount(l.ASID, l.Addr, l.Dirty)
}

// InvalidateLine removes addr's line if resident, reporting (wasDirty,
// wasResident).
func (c *refCache) InvalidateLine(addr uint64) (bool, bool) {
	if l := c.find(addr); l != nil {
		dirty := l.Dirty
		c.stats.Invalidated++
		c.evict(l)
		return dirty, true
	}
	return false, false
}

// InvalidatePage removes every line whose address falls in the 4KB page
// containing pageAddr. It returns the number of lines invalidated.
//
// A page holds exactly LinesPerPage line addresses, so the page's lines
// are found by probing each one directly instead of scanning every set —
// LinesPerPage set lookups instead of sets x ways line inspections
// (~500x fewer for the default L2 geometry).
func (c *refCache) InvalidatePage(pageAddr uint64) int {
	base := pageAddr &^ uint64(memory.PageSize-1)
	n := 0
	for i := 0; i < memory.LinesPerPage; i++ {
		if l := c.find(base + uint64(i*memory.LineSize)); l != nil {
			c.stats.Invalidated++
			c.evict(l)
			n++
		}
	}
	return n
}

// InvalidateAll flushes the cache, returning the number of lines dropped:
// one generation bump retires every line, with stats (Invalidated,
// Evictions, Writebacks) accounted in aggregate and no per-line OnEvict.
func (c *refCache) InvalidateAll() int {
	n := c.resident
	if n == 0 {
		return 0
	}
	c.stats.Invalidated += uint64(n)
	c.stats.Evictions += uint64(n)
	c.stats.Writebacks += uint64(c.dirty)
	c.ep.MarkDeadAll(c.bumpGen())
	c.resident = 0
	c.dirty = 0
	if c.trackPages {
		c.keys = c.perASID.AppendKeys(c.keys[:0])
		for _, k := range c.keys {
			if m := c.perASID.Ref(k).pages; m != nil {
				c.releasePageMap(m)
			}
		}
		c.pageLines.Reset()
	}
	c.perASID.Reset()
	return n
}

// InvalidateASID removes every line belonging to one address space (ASID
// rollover on a virtually-tagged cache), returning the number dropped: one
// generation mark on the address space retires them, accounted like
// InvalidateAll.
func (c *refCache) InvalidateASID(asid memory.ASID) int {
	ac := c.perASID.Ref(uint64(asid))
	if ac == nil {
		return 0
	}
	n, nDirty := ac.n, ac.dirty
	c.stats.Invalidated += uint64(n)
	c.stats.Evictions += uint64(n)
	c.stats.Writebacks += uint64(nDirty)
	c.resident -= n
	c.dirty -= nDirty
	if ac.pages != nil {
		c.settlePages(ac.pages)
	}
	c.perASID.Delete(uint64(asid))
	c.ep.MarkDeadASID(uint16(asid), c.bumpGen())
	return n
}

// TrackPages makes the cache keep per-page live-line counts, so
// DistinctPages is O(1). Each fill and eviction then pays two map updates,
// so only a cache that is polled for DistinctPages should track. Call it
// before the first Fill.
func (c *refCache) TrackPages() {
	if c.resident != 0 {
		panic("cache: TrackPages on a cache that already holds lines")
	}
	c.trackPages = true
}

// DistinctPages returns the number of distinct 4KB pages with at least one
// resident line (the paper reports ~6000 for a 2MB L2), in O(1). The cache
// must track pages (TrackPages).
func (c *refCache) DistinctPages() int {
	if !c.trackPages {
		panic("cache: DistinctPages without TrackPages")
	}
	return c.pageLines.Len()
}

// Resident returns the number of valid lines.
func (c *refCache) Resident() int { return c.resident }

// DirtyLines returns the number of live dirty lines (the writebacks a full
// flush will owe).
func (c *refCache) DirtyLines() int { return c.dirty }

// ASIDResident returns the live line and dirty-line counts for one address
// space, without scanning.
func (c *refCache) ASIDResident(asid memory.ASID) (lines, dirty int) {
	if ac := c.perASID.Ref(uint64(asid)); ac != nil {
		return ac.n, ac.dirty
	}
	return 0, 0
}
