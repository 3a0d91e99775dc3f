// Package cache models set-associative caches with LRU replacement. The
// same structure serves as a physically-tagged cache (the baseline) and as
// a virtually-tagged cache (the paper's proposal): lines carry the page
// permission and ASID needed for virtual caching, and page-granularity
// invalidation supports FBT-entry eviction and TLB shootdown. Addresses are
// opaque uint64s; the owner decides whether they are virtual or physical.
//
// Bulk invalidation (InvalidateAll / InvalidateASID) is epoch-based: a
// generation bump retires every targeted line at once and dead lines are
// reclaimed when their slot is next touched. Residency and dirty counts are
// maintained incrementally so Resident() and the flush accounting stay
// exact without scans. Bulk invalidations never fire OnEvict: owners
// account for the writebacks they owe in aggregate (DirtyLines /
// ASIDResident) before flushing. The scan they replace survives only as
// the reference model of the package's differential tests.
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

// Line is one cache line's metadata.
type Line struct {
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
func (l Line) ActiveLifetime() uint64 { return l.lastAccess - l.insertedAt }

// InsertedAt returns the cycle the line was filled.
func (l Line) InsertedAt() uint64 { return l.insertedAt }

// LastAccess returns the cycle of the line's most recent hit (or fill).
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
	n     int // live lines
	dirty int // of which dirty
}

// Cache is a set-associative cache.
type Cache struct {
	cfg       Config
	sets      [][]Line
	lineMask  uint64
	lineShift uint
	tick      uint64
	stats     Stats

	// Epoch invalidation state: a line is live iff its born generation
	// survives every death mark in ep. normalize() rewinds the generations
	// before the counter can wrap.
	ep       flatmap.Epoch
	resident int                   // live lines (maintained, so Resident is O(1))
	dirty    int                   // live dirty lines
	perASID  flatmap.Map[asidCnt]  // keyed by uint64(asid)
	pages    flatmap.Map[struct{}] // reusable DistinctPages scratch

	// Clock, if set, supplies the current cycle for lifetime tracking.
	Clock func() uint64
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
	sets := cfg.Sets()
	c.sets = make([][]Line, sets)
	for i := range c.sets {
		c.sets[i] = make([]Line, cfg.Assoc)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) now() uint64 {
	if c.Clock != nil {
		return c.Clock()
	}
	return c.tick
}

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr & c.lineMask }

// Bank returns the bank index for addr (hash of line address).
func (c *Cache) Bank(addr uint64) int {
	if c.cfg.Banks <= 1 {
		return 0
	}
	return int((addr >> c.lineShift) % uint64(c.cfg.Banks))
}

func (c *Cache) setIndex(addr uint64) int {
	return int((addr >> c.lineShift) % uint64(len(c.sets)))
}

// live reports whether a valid line survived every bulk invalidation since
// it was filled. Callers check Valid themselves.
func (c *Cache) live(l *Line) bool {
	return c.ep.Live(uint16(l.ASID), l.born)
}

func (c *Cache) incCount(asid memory.ASID, dirty bool) {
	c.resident++
	ac := c.perASID.Upsert(uint64(asid))
	ac.n++
	if dirty {
		c.dirty++
		ac.dirty++
	}
}

func (c *Cache) decCount(asid memory.ASID, dirty bool) {
	c.resident--
	ac := c.perASID.Ref(uint64(asid))
	ac.n--
	if dirty {
		c.dirty--
		ac.dirty--
	}
	if ac.n == 0 {
		c.perASID.Delete(uint64(asid))
	}
}

// markDirty records a clean-to-dirty transition on a live line.
func (c *Cache) markDirty(l *Line) {
	if l.Dirty {
		return
	}
	l.Dirty = true
	c.dirty++
	c.perASID.Ref(uint64(l.ASID)).dirty++
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

func (c *Cache) find(addr uint64) *Line {
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
func (c *Cache) Access(addr uint64, write bool) (Line, bool) {
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
	return Line{}, false
}

// Probe reports whether addr's line is resident, without side effects.
func (c *Cache) Probe(addr uint64) bool { return c.find(addr) != nil }

// Get returns the line metadata for addr without side effects.
func (c *Cache) Get(addr uint64) (Line, bool) {
	if l := c.find(addr); l != nil {
		return *l, true
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
			return Line{}, false
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
	set[victim] = Line{Addr: la, Valid: true, Dirty: dirty, Perm: perm, ASID: asid, lru: c.tick, insertedAt: now, lastAccess: now, born: c.ep.Gen()}
	c.incCount(asid, dirty)
	return evicted, evictedValid
}

func (c *Cache) evict(l *Line) {
	c.stats.Evictions++
	if l.Dirty {
		c.stats.Writebacks++
	}
	if c.OnEvict != nil {
		c.OnEvict(*l)
	}
	l.Valid = false
	c.decCount(l.ASID, l.Dirty)
}

// InvalidateLine removes addr's line if resident, reporting (wasDirty,
// wasResident).
func (c *Cache) InvalidateLine(addr uint64) (bool, bool) {
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
func (c *Cache) InvalidatePage(pageAddr uint64) int {
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
func (c *Cache) InvalidateAll() int {
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
	c.perASID.Reset()
	return n
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
	c.perASID.Delete(uint64(asid))
	c.ep.MarkDeadASID(uint16(asid), c.bumpGen())
	return n
}

// DistinctPages counts the distinct 4KB pages with at least one resident
// line (the paper reports ~6000 for a 2MB L2). The scratch set is reused
// across calls, so the figure/metrics loops that poll it per interval stop
// allocating once it has warmed up.
func (c *Cache) DistinctPages() int {
	c.pages.Reset()
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid && c.live(&set[i]) {
				c.pages.Put(set[i].Addr>>memory.PageShift, struct{}{})
			}
		}
	}
	return c.pages.Len()
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
