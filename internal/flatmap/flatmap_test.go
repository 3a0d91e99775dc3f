package flatmap

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// model is the reference implementation: a built-in map plus brute-force
// epoch bookkeeping. Every operation the Map supports is mirrored here with
// the obvious semantics, and the differential tests require the two to
// agree at every step.
type model struct {
	m       map[uint64]modelEntry
	seq     uint32
	deadAll uint32
	dead    map[uint16]uint32
}

type modelEntry struct {
	val  uint64
	born uint32
}

func newModel() *model {
	return &model{m: make(map[uint64]modelEntry), dead: make(map[uint16]uint32)}
}

func (md *model) live(k uint64, e modelEntry) bool {
	if e.born < md.deadAll {
		return false
	}
	if d, ok := md.dead[KeyASID(k)]; ok && e.born < d {
		return false
	}
	return true
}

func (md *model) get(k uint64) (uint64, bool) {
	e, ok := md.m[k]
	if !ok || !md.live(k, e) {
		return 0, false
	}
	return e.val, true
}

func (md *model) put(k, v uint64) bool {
	e, ok := md.m[k]
	replaced := ok && md.live(k, e)
	md.m[k] = modelEntry{val: v, born: md.seq}
	return replaced
}

func (md *model) del(k uint64) (uint64, bool) {
	e, ok := md.m[k]
	if !ok {
		return 0, false
	}
	delete(md.m, k)
	if !md.live(k, e) {
		return 0, false
	}
	return e.val, true
}

func (md *model) liveKeys() []uint64 {
	var ks []uint64
	for k, e := range md.m {
		if md.live(k, e) {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return ks
}

// checkAgainst compares the full live-entry view of m and md.
func (md *model) checkAgainst(t *testing.T, m *Map[uint64], step int) {
	t.Helper()
	want := md.liveKeys()
	got := m.AppendKeys(nil)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: live key sets differ\n got %v\nwant %v", step, got, want)
	}
	for _, k := range want {
		wv, _ := md.get(k)
		gv, ok := m.Get(k)
		if !ok || gv != wv {
			t.Fatalf("step %d: Get(%#x) = %d,%v want %d,true", step, k, gv, ok, wv)
		}
	}
	if m.Len() < len(want) {
		t.Fatalf("step %d: Len %d < live count %d", step, m.Len(), len(want))
	}
}

// driveDifferential runs one op stream against a Map and the reference
// model. ops bytes select operations; the key universe is small so
// collisions, deletions, and epoch deaths interleave densely.
func driveDifferential(t *testing.T, ops []byte, packed bool, checkEvery int) {
	t.Helper()
	var ep Epoch
	var m Map[uint64]
	m.Init(&ep)
	md := newModel()

	keyAt := func(b byte) uint64 {
		if packed {
			// 4 address spaces x 32 VPNs.
			return Key(uint16(b>>5&3), uint64(b&31))
		}
		// Full-width keys, including values above the ASID boundary so the
		// no-epoch width is exercised too (the epoch then sees the high bits
		// as an ASID, which is exactly the packed contract).
		return uint64(b) * 0x0101010101010101 >> 8
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		k := keyAt(arg)
		switch op % 8 {
		case 0, 1, 2: // insert
			v := uint64(i)
			if got, want := m.Put(k, v), md.put(k, v); got != want {
				t.Fatalf("step %d: Put(%#x) replaced=%v, model %v", i, k, got, want)
			}
		case 3: // delete
			gv, gok := m.Delete(k)
			wv, wok := md.del(k)
			if gok != wok || gv != wv {
				t.Fatalf("step %d: Delete(%#x) = %d,%v want %d,%v", i, k, gv, gok, wv, wok)
			}
		case 4: // ASID kill
			asid := uint16(arg >> 5 & 3)
			g := ep.Bump()
			ep.MarkDeadASID(asid, g)
			md.seq = g
			md.dead[asid] = g
		case 5: // kill everything
			if arg%4 == 0 { // rarer than ASID kills
				g := ep.Bump()
				ep.MarkDeadAll(g)
				md.seq = g
				md.deadAll = g
				md.dead = make(map[uint16]uint32)
			}
		case 6: // lookup
			gv, gok := m.Get(k)
			wv, wok := md.get(k)
			if gok != wok || gv != wv {
				t.Fatalf("step %d: Get(%#x) = %d,%v want %d,%v", i, k, gv, gok, wv, wok)
			}
		case 7: // wraparound: park the counter at the ceiling and normalize
			if arg%8 == 0 {
				ep.SetGen(^uint32(0))
				md.seq = ^uint32(0)
				m.Normalize()
				ep.Reset()
				// Model equivalent: drop dead, rewind live to zero.
				for k2, e := range md.m {
					if !md.live(k2, e) {
						delete(md.m, k2)
					} else {
						e.born = 0
						md.m[k2] = e
					}
				}
				md.seq, md.deadAll = 0, 0
				md.dead = make(map[uint16]uint32)
			}
		}
		if checkEvery > 0 && i%checkEvery == 0 {
			md.checkAgainst(t, &m, i)
		}
	}
	md.checkAgainst(t, &m, len(ops))
}

func TestDifferentialVsMapPackedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		ops := make([]byte, 4000)
		rng.Read(ops)
		driveDifferential(t, ops, true, 64)
	}
}

func TestDifferentialVsMapWideKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		ops := make([]byte, 4000)
		rng.Read(ops)
		driveDifferential(t, ops, false, 64)
	}
}

// FuzzDifferential lets the fuzzer drive the same differential harness.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 6, 1, 3, 1}, true)
	f.Add([]byte{0, 200, 4, 200, 6, 200, 0, 200, 5, 0, 7, 0}, false)
	f.Fuzz(func(t *testing.T, ops []byte, packed bool) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		driveDifferential(t, ops, packed, 32)
	})
}

func TestKeyPacking(t *testing.T) {
	k := Key(0xBEEF, 0xFACE12345)
	if KeyASID(k) != 0xBEEF || KeyVPN(k) != 0xFACE12345 {
		t.Fatalf("Key round-trip failed: %#x -> %#x/%#x", k, KeyASID(k), KeyVPN(k))
	}
	// Packed uint64 order must equal (asid, vpn) lexicographic order.
	keys := []uint64{Key(2, 0), Key(1, 1<<40), Key(1, 3), Key(2, 1)}
	slices.Sort(keys)
	want := []uint64{Key(1, 3), Key(1, 1<<40), Key(2, 0), Key(2, 1)}
	if !slices.Equal(keys, want) {
		t.Fatalf("sorted packed keys %v, want %v", keys, want)
	}
}

func TestZeroValueMap(t *testing.T) {
	var m Map[int]
	if _, ok := m.Get(7); ok {
		t.Fatal("Get on zero map hit")
	}
	if _, ok := m.Delete(7); ok {
		t.Fatal("Delete on zero map hit")
	}
	m.Reset() // no-op
	if m.Put(7, 1) {
		t.Fatal("first Put replaced")
	}
	if v, ok := m.Get(7); !ok || v != 1 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
}

func TestUpsertAndRef(t *testing.T) {
	var m Map[int]
	for i := 0; i < 2; i++ {
		p := m.Upsert(5)
		*p++
	}
	if v, _ := m.Get(5); v != 2 {
		t.Fatalf("Upsert count = %d, want 2", v)
	}
	if p := m.Ref(5); p == nil || *p != 2 {
		t.Fatal("Ref(5) wrong")
	}
	if m.Ref(6) != nil {
		t.Fatal("Ref(6) should be nil")
	}
}

// TestGrowPresizes pins the 0-allocation contract the FBT relies on: after
// Grow(n), rounds of n puts (updates of live keys among them) interleaved
// with deletes and epoch kills never reallocate. Grow asks for no more
// than it needs: the smallest power of two of at least 2n slots (the
// FBT's Grow(16384) is 32,768 slots).
func TestGrowPresizes(t *testing.T) {
	for _, n := range []int{3, 1000, 16384} {
		var ep Epoch
		var m Map[int]
		m.Init(&ep)
		m.Grow(n)
		c := m.Cap()
		if want := max(minCap, 1<<bits.Len(uint(2*n-1))); c != want {
			t.Fatalf("n=%d: Grow sized %d slots, want %d", n, c, want)
		}
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 20; round++ {
			for i := 0; i < n; i++ {
				m.Put(Key(uint16(i%4), uint64(i)), i)
			}
			switch round % 3 {
			case 0:
				g := ep.Bump()
				ep.MarkDeadAll(g)
			case 1:
				g := ep.Bump()
				ep.MarkDeadASID(uint16(rng.Intn(4)), g)
			case 2:
				for i := 0; i < n; i += 2 {
					m.Delete(Key(uint16(i%4), uint64(i)))
				}
			}
			if m.Cap() != c {
				t.Fatalf("n=%d round %d: capacity grew %d -> %d despite presize", n, round, c, m.Cap())
			}
		}
	}
}

// TestSweepReclaimsInsteadOfGrowing drives a workload whose live set stays
// small while dead entries pile up: occupancy-triggered sweeps must hold
// the capacity flat.
func TestSweepReclaimsInsteadOfGrowing(t *testing.T) {
	var ep Epoch
	var m Map[int]
	m.Init(&ep)
	for i := 0; i < 64; i++ {
		m.Put(Key(1, uint64(i)), i)
	}
	c0 := m.Cap()
	for round := 0; round < 200; round++ {
		g := ep.Bump()
		ep.MarkDeadASID(1, g)
		for i := 0; i < 64; i++ {
			m.Put(Key(1, uint64(round*64+i)), i)
		}
	}
	if m.Cap() > 2*c0 {
		t.Fatalf("capacity exploded under churn: %d -> %d", c0, m.Cap())
	}
}

// TestEpochFloor: Floor is the generation Live compares against, for
// every address space, across all-entry and per-ASID death marks.
func TestEpochFloor(t *testing.T) {
	var ep Epoch
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 2000; op++ {
		switch asid := uint16(rng.Intn(6)); rng.Intn(8) {
		case 0:
			ep.MarkDeadAll(ep.Bump())
		case 1, 2:
			ep.MarkDeadASID(asid, ep.Bump())
		default:
			ep.Bump()
		}
		for asid := uint16(0); asid < 6; asid++ {
			f := ep.Floor(asid)
			for _, born := range []uint32{0, f - 1, f, f + 1, ep.Gen()} {
				if got, want := born >= f, ep.Live(asid, born); got != want {
					t.Fatalf("op %d: asid %d born %d: born >= Floor %d is %v, Live %v", op, asid, born, f, got, want)
				}
			}
		}
	}
}
