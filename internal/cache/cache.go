// Package cache models set-associative caches with LRU replacement. The
// same structure serves as a physically-tagged cache (the baseline) and as
// a virtually-tagged cache (the paper's proposal): lines carry the page
// permission and ASID needed for virtual caching, and page-granularity
// invalidation supports FBT-entry eviction and TLB shootdown. Addresses are
// opaque uint64s; the owner decides whether they are virtual or physical.
//
// Lines live in flat per-slot lanes indexed set*ways+way: a tag lane of
// line addresses, the LRU stamps and birth generations of flatmap.Sets, and
// a 2-byte payload lane with the permission and dirty bit, so a lookup
// compares tags and a fill scans tags and stamps. A cache that opts in
// with TrackLifetimes also keeps each line's fill and last-access cycles
// in a lane of their own; no other cache pays for them.
//
// Bulk invalidation (InvalidateAll / InvalidateASID) is epoch-based: a
// generation bump retires every targeted line at once and dead lines are
// reclaimed when their slot is next touched. Residency and dirty counts are
// maintained incrementally so Resident() and the flush accounting stay
// exact without scans. A cache that opts in with TrackPages also keeps
// per-page live-line counts, so DistinctPages is O(1) and a bulk
// invalidation settles only the pages it retires. Bulk invalidations never
// fire OnEvict: owners account for the writebacks they owe in aggregate
// (DirtyLines / ASIDResident) before flushing. The scans they replace
// survive only as the reference models of the package's differential
// tests.
package cache

import (
	"fmt"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// WritePolicy selects how stores interact with the cache.
type WritePolicy int

// Write policies.
const (
	// WriteThroughNoAllocate: stores update a hitting line but never
	// allocate, and always propagate to the next level; lines are never
	// dirty. This is the paper's GPU L1 policy.
	WriteThroughNoAllocate WritePolicy = iota
	// WriteBack: stores allocate and dirty lines; dirty evictions are
	// written back. This is the paper's GPU L2 policy.
	WriteBack
)

func (w WritePolicy) String() string {
	switch w {
	case WriteThroughNoAllocate:
		return "write-through-no-allocate"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(w))
	}
}

// Config describes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Banks     int // informational; bank contention is modeled by the owner
	Policy    WritePolicy
}

// Lines returns the total line count.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int {
	s := c.Lines() / c.Assoc
	if s < 1 {
		return 1
	}
	return s
}

// Line is one cache line's metadata, as lookups and OnEvict hand it out.
// Its lifetime stamps read 0 unless the cache tracks lifetimes
// (TrackLifetimes).
type Line struct {
	Addr  uint64 // line-aligned address (virtual or physical per owner)
	Valid bool
	Dirty bool
	Perm  memory.Perm // page permission, used by virtual caches
	ASID  memory.ASID

	insertedAt uint64
	lastAccess uint64
}

// ActiveLifetime returns lastAccess - insertedAt, the paper's definition of
// a line's active lifetime. It reads 0 unless the cache tracks lifetimes.
func (l Line) ActiveLifetime() uint64 { return l.lastAccess - l.insertedAt }

// InsertedAt returns the cycle the line was filled. It reads 0 unless the
// cache tracks lifetimes.
func (l Line) InsertedAt() uint64 { return l.insertedAt }

// LastAccess returns the cycle of the line's most recent hit (or fill). It
// reads 0 unless the cache tracks lifetimes.
func (l Line) LastAccess() uint64 { return l.lastAccess }

// Stats are the cache's event counters.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64 // dirty evictions
	Invalidated uint64 // lines removed by invalidation
}

// Hits returns read+write hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns read+write misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits() + s.Misses() }

// HitRatio returns hits / accesses.
func (s Stats) HitRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(a)
}

// asidCnt tracks one address space's live lines so InvalidateASID can
// account for them without a scan.
type asidCnt struct {
	n     int                 // live lines
	dirty int                 // of which dirty
	pages *flatmap.Map[int32] // page -> this space's live lines (TrackPages)
}

// lineMeta is a line's payload: what a lookup reads only on a hit or for
// the victim.
type lineMeta struct {
	perm  memory.Perm
	dirty bool
}

// lifetime is a tracked line's fill and last-access cycles.
type lifetime struct {
	insertedAt uint64
	lastAccess uint64
}

// Cache is a set-associative cache.
type Cache struct {
	cfg Config
	// Per-slot lanes, indexed set*ways+way. A slot holds a line while its
	// stamp in sets is nonzero, so a tag is the bare line address, exact
	// for every line size (1 byte included); a stale tag left in an empty
	// slot fails the stamp check.
	tags      []uint64
	meta      []lineMeta
	life      []lifetime // TrackLifetimes only
	sets      flatmap.Sets
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

	clock func() uint64 // TrackLifetimes only

	// OnEvict, if set, observes every line leaving the cache by capacity
	// eviction or line/page invalidation. Dirty lines need writing back by
	// the owner. Bulk invalidations retire lines without it.
	OnEvict func(l Line)
}

// New builds a cache from cfg. LineBytes must be a power of two.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a positive power of two", cfg.LineBytes))
	}
	if cfg.Assoc <= 0 {
		panic("cache: associativity must be positive")
	}
	c := &Cache{cfg: cfg, lineMask: ^uint64(cfg.LineBytes - 1)}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	c.sets.Init(&c.ep, cfg.Sets(), cfg.Assoc)
	c.tags = make([]uint64, c.sets.Slots())
	c.meta = make([]lineMeta, c.sets.Slots())
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr & c.lineMask }

// Bank returns the bank index for addr (hash of line address).
func (c *Cache) Bank(addr uint64) int {
	if c.cfg.Banks <= 1 {
		return 0
	}
	return int((addr >> c.lineShift) % uint64(c.cfg.Banks))
}

// base returns the first slot of addr's set.
func (c *Cache) base(addr uint64) int { return c.sets.Base(addr >> c.lineShift) }

// line builds the Line held in slot i.
func (c *Cache) line(i int) Line {
	m := c.meta[i]
	l := Line{Addr: c.tags[i], Valid: true, Dirty: m.dirty, Perm: m.perm, ASID: memory.ASID(c.sets.ASID(i))}
	if c.life != nil {
		l.insertedAt, l.lastAccess = c.life[i].insertedAt, c.life[i].lastAccess
	}
	return l
}

func (c *Cache) incCount(asid memory.ASID, addr uint64, dirty bool) {
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

func (c *Cache) decCount(asid memory.ASID, addr uint64, dirty bool) {
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

// dropLines takes n live lines off page's count in m, deleting the page at
// zero.
func dropLines(m *flatmap.Map[int32], page uint64, n int32) {
	p := m.Ref(page)
	if *p -= n; *p == 0 {
		m.Delete(page)
	}
}

// pageMap returns an empty per-space page map, recycled when one is free.
func (c *Cache) pageMap() *flatmap.Map[int32] {
	if n := len(c.pageMaps); n > 0 {
		m := c.pageMaps[n-1]
		c.pageMaps = c.pageMaps[:n-1]
		return m
	}
	return new(flatmap.Map[int32])
}

// releasePageMap empties a per-space page map and keeps it for reuse.
func (c *Cache) releasePageMap(m *flatmap.Map[int32]) {
	m.Reset()
	c.pageMaps = append(c.pageMaps, m)
}

// settlePages takes a retired space's lines off the page counts and
// recycles its page map: O(pages the space held).
func (c *Cache) settlePages(m *flatmap.Map[int32]) {
	c.keys = m.AppendKeys(c.keys[:0])
	for _, page := range c.keys {
		n, _ := m.Get(page)
		dropLines(&c.pageLines, page, n)
	}
	c.releasePageMap(m)
}

// markDirty records a clean-to-dirty transition on the live line in slot
// i.
func (c *Cache) markDirty(i int) {
	if c.meta[i].dirty {
		return
	}
	c.meta[i].dirty = true
	c.dirty++
	c.perASID.Ref(uint64(c.sets.ASID(i))).dirty++
}

// bumpGen advances the generation counter, normalizing first when the next
// increment would wrap.
func (c *Cache) bumpGen() uint32 {
	if c.ep.AtMax() {
		c.normalize()
	}
	return c.ep.Bump()
}

// normalize physically drops dead lines and rewinds every generation to
// zero; one full walk per 2^32 bulk invalidations.
func (c *Cache) normalize() {
	c.sets.Normalize()
	c.ep.Reset()
}

// find returns the slot of addr's live line, or -1.
func (c *Cache) find(addr uint64) int {
	la := c.LineAddr(addr)
	base := c.base(addr)
	for w, tag := range c.tags[base : base+c.sets.Ways()] {
		if tag != la {
			continue
		}
		i := base + w
		if c.sets.Live(i) {
			return i
		}
		// Reclaim a dead slot on touch; a live line with the same address
		// may still follow (filled after the bulk invalidation into another
		// way).
		c.sets.Clear(i)
	}
	return -1
}

// Access performs a load or store lookup. On a hit it refreshes LRU and
// (for write-back stores) dirties the line. It returns the hitting line
// metadata and whether it hit. Store misses never allocate here; callers
// use Fill after fetching data (write-back) or skip allocation entirely
// (write-through no-allocate).
func (c *Cache) Access(addr uint64, write bool) (Line, bool) {
	c.tick++
	if i := c.find(addr); i >= 0 {
		c.sets.Touch(i, c.tick)
		if c.life != nil {
			c.life[i].lastAccess = c.clock()
		}
		if write {
			c.stats.WriteHits++
			if c.cfg.Policy == WriteBack {
				c.markDirty(i)
			}
		} else {
			c.stats.ReadHits++
		}
		return c.line(i), true
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return Line{}, false
}

// Probe reports whether addr's line is resident, without side effects.
func (c *Cache) Probe(addr uint64) bool { return c.find(addr) >= 0 }

// Get returns the line metadata for addr without side effects.
func (c *Cache) Get(addr uint64) (Line, bool) {
	if i := c.find(addr); i >= 0 {
		return c.line(i), true
	}
	return Line{}, false
}

// Fill installs addr's line with the given permission and ASID, evicting
// the set's LRU victim if necessary. If dirty is true the new line starts
// dirty (write-allocate store). The evicted line, if any, is passed to
// OnEvict and also returned.
func (c *Cache) Fill(addr uint64, perm memory.Perm, asid memory.ASID, dirty bool) (evicted Line, evictedValid bool) {
	c.tick++
	c.stats.Fills++
	la := c.LineAddr(addr)
	base := c.base(addr)
	for w, tag := range c.tags[base : base+c.sets.Ways()] {
		if i := base + w; tag == la && c.sets.Live(i) {
			// Refresh in place (e.g. racing fills).
			c.sets.Touch(i, c.tick)
			if c.life != nil {
				c.life[i].lastAccess = c.clock()
			}
			c.meta[i].perm = perm
			if dirty {
				c.markDirty(i)
			}
			return Line{}, false
		}
	}
	i, free := c.sets.Victim(base)
	if !free {
		evicted, evictedValid = c.evict(i), true
	}
	c.tags[i] = la
	c.sets.Fill(i, c.tick, uint16(asid))
	c.meta[i] = lineMeta{perm: perm, dirty: dirty}
	if c.life != nil {
		now := c.clock()
		c.life[i] = lifetime{insertedAt: now, lastAccess: now}
	}
	c.incCount(asid, la, dirty)
	return evicted, evictedValid
}

// evict removes the live line in slot i, firing OnEvict, and returns it.
func (c *Cache) evict(i int) Line {
	l := c.line(i)
	c.stats.Evictions++
	if l.Dirty {
		c.stats.Writebacks++
	}
	if c.OnEvict != nil {
		c.OnEvict(l)
	}
	c.sets.Clear(i)
	c.decCount(l.ASID, l.Addr, l.Dirty)
	return l
}

// InvalidateLine removes addr's line if resident, reporting (wasDirty,
// wasResident).
func (c *Cache) InvalidateLine(addr uint64) (bool, bool) {
	if i := c.find(addr); i >= 0 {
		c.stats.Invalidated++
		return c.evict(i).Dirty, true
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
func (c *Cache) InvalidatePage(pageAddr uint64) int {
	base := pageAddr &^ uint64(memory.PageSize-1)
	n := 0
	for i := 0; i < memory.LinesPerPage; i++ {
		if j := c.find(base + uint64(i*memory.LineSize)); j >= 0 {
			c.stats.Invalidated++
			c.evict(j)
			n++
		}
	}
	return n
}

// InvalidateAll flushes the cache, returning the number of lines dropped:
// one generation bump retires every line, with stats (Invalidated,
// Evictions, Writebacks) accounted in aggregate and no per-line OnEvict.
func (c *Cache) InvalidateAll() int {
	n := c.resident
	if n == 0 {
		return 0
	}
	c.stats.Invalidated += uint64(n)
	c.stats.Evictions += uint64(n)
	c.stats.Writebacks += uint64(c.dirty)
	c.ep.MarkDeadAll(c.bumpGen())
	c.dropCounts()
	return n
}

// dropCounts zeroes the residency, dirty, per-space and page counts,
// recycling the per-space page maps.
func (c *Cache) dropCounts() {
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
}

// Reset empties the cache and zeroes its counters and clock, returning it
// to the state New, and TrackPages or TrackLifetimes if the owner called
// them, left it in. It keeps every lane and table, so it allocates
// nothing, and it fires no OnEvict: the owner drops the state those
// lines stood for itself.
func (c *Cache) Reset() {
	c.sets.Reset()
	c.ep.Reset()
	c.tick = 0
	c.stats = Stats{}
	c.dropCounts()
}

// InvalidateASID removes every line belonging to one address space (ASID
// rollover on a virtually-tagged cache), returning the number dropped: one
// generation mark on the address space retires them, accounted like
// InvalidateAll.
func (c *Cache) InvalidateASID(asid memory.ASID) int {
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
func (c *Cache) TrackPages() {
	if c.resident != 0 {
		panic("cache: TrackPages on a cache that already holds lines")
	}
	c.trackPages = true
}

// TrackLifetimes makes the cache stamp each line with clock's cycle at its
// fill and at every hit, so Line's lifetime accessors read real values.
// The stamps live in a lane that only a tracking cache allocates. Call it
// before the first Fill.
func (c *Cache) TrackLifetimes(clock func() uint64) {
	if c.resident != 0 {
		panic("cache: TrackLifetimes on a cache that already holds lines")
	}
	c.clock = clock
	c.life = make([]lifetime, c.sets.Slots())
}

// DistinctPages returns the number of distinct 4KB pages with at least one
// resident line (the paper reports ~6000 for a 2MB L2), in O(1). The cache
// must track pages (TrackPages).
func (c *Cache) DistinctPages() int {
	if !c.trackPages {
		panic("cache: DistinctPages without TrackPages")
	}
	return c.pageLines.Len()
}

// Resident returns the number of valid lines.
func (c *Cache) Resident() int { return c.resident }

// DirtyLines returns the number of live dirty lines (the writebacks a full
// flush will owe).
func (c *Cache) DirtyLines() int { return c.dirty }

// ASIDResident returns the live line and dirty-line counts for one address
// space, without scanning.
func (c *Cache) ASIDResident(asid memory.ASID) (lines, dirty int) {
	if ac := c.perASID.Ref(uint64(asid)); ac != nil {
		return ac.n, ac.dirty
	}
	return 0, 0
}

func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB, %dB lines, %d-way, %s}", c.cfg.SizeBytes/1024, c.cfg.LineBytes, c.cfg.Assoc, c.cfg.Policy)
}
