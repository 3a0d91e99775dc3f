package flatmap

import (
	"math/rand"
	"testing"
)

// scanVictim is Sets.Victim as it stood before its branch-free form, kept
// verbatim as the reference the victim tests hold it to: the last empty or
// epoch-dead slot, else the first slot with the smallest stamp.
func scanVictim(s *Sets, base int) (victim int, free bool) {
	marked := s.ep.Marked()
	stamp := s.stamp[base : base+s.ways]
	v, low := 0, stamp[0]
	// While the epoch is marked, floor is the death floor of floorASID,
	// the address space of the last live-checked slot: a set holds few
	// spaces, so the per-ASID marks are probed about once per scan.
	var floorASID uint16
	var floor uint32
	haveFloor := false
	for w, st := range stamp {
		empty := st == 0
		if !empty && marked {
			b := s.birth[base+w]
			if !haveFloor || b.asid != floorASID {
				floorASID, floor, haveFloor = b.asid, s.ep.Floor(b.asid), true
			}
			empty = b.gen < floor
		}
		if empty {
			v, free = w, true
		} else if !free && st < low {
			v, low = w, st
		}
	}
	return base + v, free
}

// checkVictims builds a sets x ways lane set from data, three bytes a slot
// (taken cyclically), sets the death marks mark selects, and requires
// Victim to agree with scanVictim on every set. A slot whose first byte is
// 0 is empty; otherwise its stamp orders by its first two bytes, with the
// way in the low bits, so live stamps in a set are unique, as owners keep
// them. The third byte picks one of four address spaces and a birth
// generation. mark&3 selects no mark (0), an all-ASID mark (1), per-ASID
// marks (2) or both (3); bits 2-9 are the all-ASID floor, bits 10-13 the
// spaces that carry a per-ASID mark, each at its own floor.
func checkVictims(t *testing.T, sets, ways int, mark uint16, data []byte) {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	var ep Epoch
	ep.SetGen(1 << 10)
	var s Sets
	s.Init(&ep, sets, ways)
	at := func(k int) uint64 { return uint64(data[k%len(data)]) }
	for i := range s.stamp {
		hi, lo, b := at(3*i), at(3*i+1), at(3*i+2)
		if hi != 0 {
			s.stamp[i] = (hi<<8|lo)<<5 | uint64(i%ways)
		}
		s.birth[i] = birth{gen: uint32(b>>2) * 4, asid: uint16(b & 3)}
	}
	floor := uint32(mark>>2) & 0xff
	if mark&1 != 0 {
		ep.MarkDeadAll(floor)
	}
	if mark&2 != 0 {
		for a := uint16(0); a < 4; a++ {
			if mark>>(10+a)&1 != 0 {
				ep.MarkDeadASID(a, (floor+uint32(a)*71)&0xff)
			}
		}
	}
	for set := 0; set < sets; set++ {
		base := s.Base(uint64(set))
		v, free := s.Victim(base)
		wv, wfree := scanVictim(&s, base)
		if v != wv || free != wfree {
			t.Fatalf("%d sets x %d ways, mark %#x, set %d: Victim = (%d, %v), scan = (%d, %v)\nstamps %v\nbirths %v",
				sets, ways, mark, set, v, free, wv, wfree, s.stamp[base:base+ways], s.birth[base:base+ways])
		}
	}
}

// TestSetsVictimMatchesScan holds the branch-free Victim to the scan it
// replaced over random lanes: 1-32 ways, power-of-two and other set
// counts, sets from all empty to all live, and no mark, an all-ASID mark,
// per-ASID marks or both.
func TestSetsVictimMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ways := 1; ways <= 32; ways++ {
		for _, sets := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
			for _, emptyEvery := range []int{0, 1, 2, 5} {
				for trial := 0; trial < 8; trial++ {
					data := make([]byte, 3*sets*ways)
					rng.Read(data)
					for k := 0; k < len(data); k += 3 {
						switch {
						case emptyEvery == 1 || emptyEvery > 1 && rng.Intn(emptyEvery) == 0:
							data[k] = 0
						case data[k] == 0:
							data[k] = 1
						}
					}
					checkVictims(t, sets, ways, uint16(rng.Intn(1<<14)), data)
				}
			}
		}
	}
}

// FuzzSetsVictim lets the fuzzer pick the geometry, the death marks and
// the lanes checkVictims compares Victim and the scan on.
func FuzzSetsVictim(f *testing.F) {
	f.Add(uint8(0), uint8(31), uint16(0), []byte{1, 2, 3, 0, 0, 0, 9, 9, 9})
	f.Add(uint8(2), uint8(7), uint16(0x3c05), []byte{5, 1, 0x81, 4, 2, 0x12, 0, 0, 0, 7, 3, 0xff})
	f.Add(uint8(4), uint8(0), uint16(0x1402), []byte{0})
	f.Fuzz(func(t *testing.T, sets, ways uint8, mark uint16, data []byte) {
		checkVictims(t, 1+int(sets%16), 1+int(ways%32), mark, data)
	})
}
