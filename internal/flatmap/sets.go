package flatmap

// Sets is the bookkeeping half of a set-associative structure (a cache, a
// TLB, the FBT's backward table), kept in flat lanes indexed
// set*ways+way: each slot's LRU stamp, zero while the slot is empty, and
// the generation and address space its entry was born under, which is all
// an epoch liveness check reads. The owner keeps its tags and payloads in
// lanes of its own, indexed the same way, so a lookup compares tags and a
// fill scans tags and stamps, reading a payload only for a match or the
// victim. Every lane is one allocation, whatever the set count.
//
// Owners stamp from a counter that they advance before each use, so a
// live stamp is never zero. Epoch-dead entries keep their slots until a
// probe or a fill touches them, as in the hash tables.
type Sets struct {
	ep    *Epoch
	ways  int
	sets  uint64
	mask  uint64 // sets-1; used when pow2
	pow2  bool
	stamp []uint64
	birth []birth
}

// birth records the generation and address space a slot's entry was born
// under.
type birth struct {
	gen  uint32
	asid uint16
}

// Init sizes the lanes for sets x ways empty slots whose liveness ep
// decides.
func (s *Sets) Init(ep *Epoch, sets, ways int) {
	s.ep, s.ways = ep, ways
	s.sets, s.mask = uint64(sets), uint64(sets-1)
	s.pow2 = sets&(sets-1) == 0
	s.stamp = make([]uint64, sets*ways)
	s.birth = make([]birth, sets*ways)
}

// Reset empties every slot, as Init leaves them, keeping the lanes.
func (s *Sets) Reset() {
	clear(s.stamp)
	clear(s.birth)
}

// Ways returns the associativity.
func (s *Sets) Ways() int { return s.ways }

// Slots returns the slot count, sets x ways.
func (s *Sets) Slots() int { return len(s.stamp) }

// Base returns the first slot of the set h selects: h masked when the set
// count is a power of two, h modulo the set count otherwise.
func (s *Sets) Base(h uint64) int {
	if s.pow2 {
		return int(h&s.mask) * s.ways
	}
	return int(h%s.sets) * s.ways
}

// Live reports whether slot i holds an entry that survived every bulk
// invalidation since its fill. It inlines; the birth check, needed only
// while the epoch carries a death mark, stays out of line.
func (s *Sets) Live(i int) bool {
	return s.stamp[i] != 0 && (!s.ep.Marked() || s.bornLive(i))
}

// bornLive reports whether slot i's entry was born after every death mark
// that covers its address space. It stays out of line so that Live
// inlines.
//
//go:noinline
func (s *Sets) bornLive(i int) bool {
	return s.ep.Live(s.birth[i].asid, s.birth[i].gen)
}

// Stamp returns slot i's LRU stamp, zero for an empty slot.
func (s *Sets) Stamp(i int) uint64 { return s.stamp[i] }

// Touch refreshes slot i's LRU stamp.
func (s *Sets) Touch(i int, stamp uint64) { s.stamp[i] = stamp }

// ASID returns the address space of slot i's entry.
func (s *Sets) ASID(i int) uint16 { return s.birth[i].asid }

// Fill records an entry of asid in slot i, stamped and born now.
func (s *Sets) Fill(i int, stamp uint64, asid uint16) {
	s.stamp[i] = stamp
	s.birth[i] = birth{gen: s.ep.Gen(), asid: asid}
}

// Clear empties slot i.
func (s *Sets) Clear(i int) { s.stamp[i] = 0 }

// Victim returns the slot a fill of the set starting at base replaces,
// under the LRU rule every cache, TLB and page-walk cache shares: the last
// empty or epoch-dead slot, else the slot with the smallest stamp. free
// reports that the slot holds no live entry.
//
// Empty and dead slots count as stamp 0, and live stamps are unique
// because owners stamp from a counter they advance before each use. So the
// rule is one pass that keeps the last minimum, a compare and two
// conditional moves per way, on clean and marked epochs alike.
func (s *Sets) Victim(base int) (victim int, free bool) {
	stamp := s.stamp[base : base+s.ways]
	v, low := 0, ^uint64(0)
	if !s.ep.Marked() {
		for w, st := range stamp {
			if st <= low {
				v, low = w, st
			}
		}
		return base + v, low == 0
	}
	// floor is the death floor of floorASID, the address space of the last
	// slot checked: a set holds few spaces, so the per-ASID marks are
	// probed about once per scan.
	birth := s.birth[base : base+len(stamp)]
	floorASID := birth[0].asid
	floor := s.ep.Floor(floorASID)
	for w, st := range stamp {
		b := birth[w]
		if b.asid != floorASID {
			floorASID, floor = b.asid, s.ep.Floor(b.asid)
		}
		if b.gen < floor {
			st = 0
		}
		if st <= low {
			v, low = w, st
		}
	}
	return base + v, low == 0
}

// Normalize empties every epoch-dead slot and rewinds live births to
// generation zero, so the owner can Reset the epoch without the counter
// wrap becoming observable.
func (s *Sets) Normalize() {
	for i, st := range s.stamp {
		if st == 0 {
			continue
		}
		if s.ep.Live(s.birth[i].asid, s.birth[i].gen) {
			s.birth[i].gen = 0
		} else {
			s.stamp[i] = 0
		}
	}
}
