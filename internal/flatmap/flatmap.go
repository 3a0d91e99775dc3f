// Package flatmap provides the open-addressing hash tables behind the
// simulator's per-line paths: the infinite-mode TLB, the FBT forward
// table, the page table and frame reference counts, the per-ASID side
// tables used by epoch invalidation, the L1 invalidation filters and the
// synonym remap tables. It also holds Merge, the one miss-merge table of
// the per-CU TLBs, the L2 line fills and the IOMMU's walks, and Sets, the
// flat per-slot bookkeeping of the set-associative caches, TLBs and FBT,
// which share the tables' epoch liveness.
//
// A Map is a power-of-two, linear-probing table in SoA layout — parallel
// control/key/generation/value arrays — with packed uint64 keys and inline
// values. Keys carry the owning address space in their top bits
// (Key/KeyASID/KeyVPN), which makes epoch liveness a property the table
// itself can check: every entry records the generation it was born under,
// and a Map wired to an Epoch treats entries older than the epoch's death
// marks as absent. A dead entry is reclaimed in place the moment a probe
// for its key lands on it (backward-shift deletion keeps chains intact, so
// no tombstones accumulate), and the remaining residue is swept in one pass
// only when occupancy would otherwise force a growth — replacing the
// op-count-triggered map rebuilds the consumers used to carry themselves.
//
// Everything the table does internally — reclamation, sweeps, growth — is a
// pure function of the operation sequence, so simulation results stay
// bit-identical no matter when the housekeeping happens to run.
package flatmap

import "math/bits"

// KeyASIDShift is the bit position of the address-space tag in packed keys.
// VPNs occupy the low 48 bits (the simulator models a 36-bit VPN space), the
// ASID the top 16.
const KeyASIDShift = 48

// Key packs (asid, vpn) into one uint64. Ascending uint64 order of packed
// keys equals lexicographic (asid, vpn) order.
func Key(asid uint16, vpn uint64) uint64 { return uint64(asid)<<KeyASIDShift | vpn }

// KeyASID extracts the address-space tag from a packed key.
func KeyASID(k uint64) uint16 { return uint16(k >> KeyASIDShift) }

// KeyVPN extracts the VPN (low 48 bits) from a packed key.
func KeyVPN(k uint64) uint64 { return k & (1<<KeyASIDShift - 1) }

// Epoch is the shared generation state for lazy bulk invalidation. An entry
// born at generation g is live iff g >= the all-entries death mark and
// g >= its address space's death mark. Owners bump the generation on each
// lazy bulk invalidation and must Normalize their tables (then Reset the
// epoch) before the uint32 counter can wrap.
type Epoch struct {
	seq     uint32
	deadAll uint32
	dead    Map[uint32] // per-ASID death marks, keyed by uint64(asid)
	marked  bool        // deadAll != 0 or some per-ASID mark is set
}

// Gen returns the current generation (the value new entries are born with).
func (ep *Epoch) Gen() uint32 { return ep.seq }

// SetGen force-sets the generation counter. Test hook for exercising
// wraparound without 2^32 bulk invalidations.
func (ep *Epoch) SetGen(g uint32) { ep.seq = g }

// AtMax reports whether the next Bump would wrap the counter; the owner
// must normalize first.
func (ep *Epoch) AtMax() bool { return ep.seq == ^uint32(0) }

// Bump advances the generation and returns the new value. Callers check
// AtMax (and normalize) first.
func (ep *Epoch) Bump() uint32 {
	ep.seq++
	return ep.seq
}

// Live reports whether an entry born at the given generation in the given
// address space has survived every bulk invalidation since. It inlines; the
// per-ASID probe, needed only while some address space carries a death
// mark, stays out of line.
func (ep *Epoch) Live(asid uint16, born uint32) bool {
	return born >= ep.deadAll && (ep.dead.used == 0 || ep.liveASID(asid, born))
}

// liveASID checks born against asid's death mark, if it has one.
func (ep *Epoch) liveASID(asid uint16, born uint32) bool {
	d, ok := ep.dead.Get(uint64(asid))
	return !ok || born >= d
}

// Marked reports whether any death mark is set. While it is false every
// entry is live, so a scan may skip the per-entry check.
func (ep *Epoch) Marked() bool { return ep.marked }

// Floor returns the generation below which an entry of asid is dead:
// Live(asid, born) == (born >= Floor(asid)). A scan over entries of few
// address spaces probes the per-ASID marks once per space this way.
func (ep *Epoch) Floor(asid uint16) uint32 {
	if ep.dead.used != 0 {
		if d, ok := ep.dead.Get(uint64(asid)); ok && d > ep.deadAll {
			return d
		}
	}
	return ep.deadAll
}

// MarkDeadAll retires every entry born before g. Per-ASID marks are
// subsumed and dropped.
func (ep *Epoch) MarkDeadAll(g uint32) {
	ep.deadAll = g
	ep.dead.Reset()
	ep.marked = g != 0
}

// MarkDeadASID retires every entry of one address space born before g.
func (ep *Epoch) MarkDeadASID(asid uint16, g uint32) {
	ep.dead.Put(uint64(asid), g)
	ep.marked = true
}

// ClearDead drops all death marks without touching the generation counter —
// used when the owner physically empties its tables (a lazy full flush of
// an infinite structure), making the marks moot.
func (ep *Epoch) ClearDead() {
	ep.deadAll = 0
	ep.dead.Reset()
	ep.marked = false
}

// Reset rewinds the epoch to generation zero. Only valid after the owner
// has normalized every table sharing the epoch (dead entries dropped, live
// generations rewound to zero).
func (ep *Epoch) Reset() {
	ep.seq, ep.deadAll = 0, 0
	ep.dead.Reset()
	ep.marked = false
}

const (
	minCap = 8
	// Growth threshold numerator/denominator: grow (after sweeping) when
	// used+1 > cap/2. Linear probing degrades sharply past ~0.6 load, and
	// keeping chains short matters more than the extra slots cost — at 1/2
	// load an unsuccessful probe touches ~2.5 slots, usually one cache line.
	loadNum, loadDen = 1, 2
)

// slot holds the probe-critical fields of one entry, 16 bytes so four slots
// share a cache line: a probe chain of typical length costs one line fill,
// where a parallel-array layout would touch three lines per step. Values
// live in a separate array touched only on a key match.
type slot struct {
	key  uint64
	born uint32 // generation at insert (epoch liveness)
	used uint32 // 0 empty, 1 occupied
}

// Map is an open-addressing hash table with uint64 keys and inline values.
// The zero value is an empty table ready for use; wire it to an Epoch with
// Init to make epoch-dead entries invisible (and reclaimed on probe).
//
// Map never stores two entries with the same key: an insert that walks over
// a dead entry with its key reclaims it first, so the live view is always a
// plain map.
type Map[V any] struct {
	ep    *Epoch // nil: entries never die by epoch
	slots []slot
	vals  []V
	used  int // occupied slots, including epoch-dead residue
	mask  uint64
	shift uint8 // 64 - log2(capacity), for fibonacci hashing
}

// Init wires the table to an epoch. Must be called before the first insert
// and not again after.
func (m *Map[V]) Init(ep *Epoch) { m.ep = ep }

// Len returns the number of occupied slots. With an epoch this may include
// dead residue not yet reclaimed, so it is an upper bound on the live count
// — owners that need exact residency maintain it themselves (the same
// contract Go-map len gave them).
func (m *Map[V]) Len() int { return m.used }

// Cap returns the current slot-array capacity (0 before the first insert).
func (m *Map[V]) Cap() int { return len(m.slots) }

func (m *Map[V]) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> m.shift
}

func (m *Map[V]) alloc(capacity int) {
	m.slots = make([]slot, capacity)
	m.vals = make([]V, capacity)
	m.mask = uint64(capacity - 1)
	m.shift = uint8(64 - bits.TrailingZeros(uint(capacity)))
}

// capFor returns the smallest power-of-two capacity that holds n entries
// under the load threshold: an insert grows the table only past cap/2
// entries, so 2n slots hold n.
func capFor(n int) int {
	c := minCap
	for c*loadNum/loadDen < n {
		c <<= 1
	}
	return c
}

// Grow presizes the table so n entries fit without triggering growth.
func (m *Map[V]) Grow(n int) {
	want := capFor(n)
	if want <= len(m.slots) {
		return
	}
	if m.used == 0 {
		m.alloc(want)
		return
	}
	m.rehash(want)
}

// Reset empties the table, keeping its capacity.
func (m *Map[V]) Reset() {
	if m.used == 0 {
		return
	}
	clear(m.slots)
	clear(m.vals) // release pointers held by values
	m.used = 0
}

// full reports whether one more entry would cross the load threshold.
func (m *Map[V]) full() bool { return (m.used+1)*loadDen > len(m.slots)*loadNum }

// find returns k's slot, reporting whether k occupies it (live or dead).
// When k is absent the slot is the empty one an insert of k fills, after
// making room if the insert would cross the load threshold: sweep dead
// residue, and only grow if the table is still too full. Only inserts
// count, so a table Grow sized for n entries never grows while it holds n.
func (m *Map[V]) find(k uint64) (uint64, bool) {
	if m.slots != nil {
		i := m.home(k)
		for ; m.slots[i].used != 0; i = (i + 1) & m.mask {
			if m.slots[i].key == k {
				return i, true
			}
		}
		if !m.full() {
			return i, false
		}
		m.sweep()
		if m.full() {
			m.rehash(len(m.slots) * 2)
		}
	} else {
		m.alloc(minCap)
	}
	i := m.home(k)
	for m.slots[i].used != 0 {
		i = (i + 1) & m.mask
	}
	return i, false
}

func (m *Map[V]) rehash(capacity int) {
	oldSlots, oldVals := m.slots, m.vals
	m.alloc(capacity)
	m.used = 0
	for i := range oldSlots {
		if oldSlots[i].used == 0 {
			continue
		}
		if m.ep != nil && !m.ep.Live(KeyASID(oldSlots[i].key), oldSlots[i].born) {
			continue
		}
		j := m.home(oldSlots[i].key)
		for m.slots[j].used != 0 {
			j = (j + 1) & m.mask
		}
		m.slots[j] = oldSlots[i]
		m.vals[j] = oldVals[i]
		m.used++
	}
}

// del removes the entry at slot i by backward-shift deletion: later entries
// in the probe chain that are displaced far enough move back into the hole,
// so lookups never need tombstones. After del returns, slot i holds either
// a shifted-in entry or nothing — probing callers re-examine it.
func (m *Map[V]) del(i uint64) {
	j := i
	for {
		j = (j + 1) & m.mask
		if m.slots[j].used == 0 {
			break
		}
		h := m.home(m.slots[j].key)
		// Movable iff j is displaced at least as far from its home as it is
		// from the hole (cyclic comparison).
		if (j-h)&m.mask >= (j-i)&m.mask {
			m.slots[i] = m.slots[j]
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	var zero V
	m.slots[i] = slot{}
	m.vals[i] = zero
	m.used--
}

// Get returns the live entry for k. A dead entry under k terminates the
// probe as a miss and is reclaimed in place; dead entries under other keys
// are stepped over (the occupancy-triggered sweep collects them) so the
// probe loop is pure key comparisons.
func (m *Map[V]) Get(k uint64) (V, bool) {
	var zero V
	if m.used == 0 {
		return zero, false
	}
	i := m.home(k)
	for {
		s := &m.slots[i]
		if s.used == 0 {
			return zero, false
		}
		if s.key == k {
			if m.ep != nil && !m.ep.Live(KeyASID(s.key), s.born) {
				m.del(i)
				return zero, false
			}
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
}

// Ref returns a pointer to the live entry for k, or nil. The pointer is
// valid only until the next mutating call.
func (m *Map[V]) Ref(k uint64) *V {
	if m.used == 0 {
		return nil
	}
	i := m.home(k)
	for {
		s := &m.slots[i]
		if s.used == 0 {
			return nil
		}
		if s.key == k {
			if m.ep != nil && !m.ep.Live(KeyASID(s.key), s.born) {
				m.del(i)
				return nil
			}
			return &m.vals[i]
		}
		i = (i + 1) & m.mask
	}
}

// Put installs k -> v born at the epoch's current generation, reporting
// whether it replaced a live entry (a dead entry under the same key counts
// as absent, exactly as its owner already accounted it).
func (m *Map[V]) Put(k uint64, v V) bool {
	var b uint32
	if m.ep != nil {
		b = m.ep.seq
	}
	i, found := m.find(k)
	s := &m.slots[i]
	m.vals[i] = v
	if found {
		// A dead entry under k is overwritten in place but counts as a
		// fresh insert, exactly as its owner already accounted it.
		live := m.ep == nil || m.ep.Live(KeyASID(s.key), s.born)
		s.born = b
		return live
	}
	*s = slot{key: k, born: b, used: 1}
	m.used++
	return false
}

// Upsert returns a pointer to k's live entry, inserting a zero value (born
// at the current generation) if absent. The pointer is valid only until the
// next mutating call.
func (m *Map[V]) Upsert(k uint64) *V {
	i, found := m.find(k)
	s := &m.slots[i]
	if found {
		if m.ep != nil && !m.ep.Live(KeyASID(s.key), s.born) {
			// Reuse the dead slot as a fresh zero-valued insert.
			s.born = m.ep.seq
			var zero V
			m.vals[i] = zero
		}
		return &m.vals[i]
	}
	var b uint32
	if m.ep != nil {
		b = m.ep.seq
	}
	*s = slot{key: k, born: b, used: 1}
	m.used++
	return &m.vals[i]
}

// Delete removes the live entry for k, returning it. A dead entry under k
// is reclaimed but reported as absent (it was already accounted dead).
func (m *Map[V]) Delete(k uint64) (V, bool) {
	var zero V
	if m.used == 0 {
		return zero, false
	}
	i := m.home(k)
	for {
		s := &m.slots[i]
		if s.used == 0 {
			return zero, false
		}
		if s.key == k {
			live := m.ep == nil || m.ep.Live(KeyASID(s.key), s.born)
			v := m.vals[i]
			m.del(i)
			if !live {
				return zero, false
			}
			return v, true
		}
		i = (i + 1) & m.mask
	}
}

// AppendKeys appends every live key to dst in slot order and returns it.
// Callers sort when they need a canonical order; packed-key uint64 order is
// (asid, vpn) order.
func (m *Map[V]) AppendKeys(dst []uint64) []uint64 {
	if m.used == 0 {
		return dst
	}
	for i := range m.slots {
		if m.slots[i].used == 0 {
			continue
		}
		if m.ep != nil && !m.ep.Live(KeyASID(m.slots[i].key), m.slots[i].born) {
			continue
		}
		dst = append(dst, m.slots[i].key)
	}
	return dst
}

// scan visits every occupied slot once, anchored at an empty slot so that
// backward-shift deletions during the scan can only move entries into
// positions the scan has not yet finished with (holes propagate forward
// within a probe chain, and no chain crosses an empty slot). visit returns
// true to delete the slot's entry; after a deletion the same position is
// re-examined.
func (m *Map[V]) scan(visit func(i uint64) bool) {
	if m.used == 0 {
		return
	}
	start := uint64(0)
	for m.slots[start].used != 0 {
		start++ // an empty slot exists: load factor is always < 1
	}
	n := uint64(len(m.slots))
	for d := uint64(1); d <= n; d++ {
		i := (start + d) & m.mask
		for m.slots[i].used != 0 && visit(i) {
			m.del(i)
		}
	}
}

// sweep reclaims every dead entry in one pass. Called when occupancy would
// otherwise force a growth; amortized O(1) per insert.
func (m *Map[V]) sweep() {
	if m.ep == nil {
		return
	}
	m.scan(func(i uint64) bool {
		return !m.ep.Live(KeyASID(m.slots[i].key), m.slots[i].born)
	})
}

// Normalize drops every dead entry and rewinds live generations to zero, so
// the owner can Reset the shared epoch without the counter wrap becoming
// observable.
func (m *Map[V]) Normalize() {
	if m.ep == nil {
		return
	}
	m.scan(func(i uint64) bool {
		if !m.ep.Live(KeyASID(m.slots[i].key), m.slots[i].born) {
			return true
		}
		m.slots[i].born = 0
		return false
	})
}
