package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"vcache/internal/memory"
)

// Builder op kinds, the calls a generator makes.
const (
	opWarp = iota
	opLoad
	opStore
	opCompute
	opScratchLoad
	opScratchStore
	opBarrier
	numOps
)

// builderOp is one generator call: lanes is a Load or Store's lane count
// (0 to maxLanes; 0 is dropped), cycles a Compute or scratch duration.
type builderOp struct {
	kind   int
	lanes  int
	cycles uint64
}

// laneAddr is the address of the n-th lane of an op stream: distinct for
// every n, so a lane staged at the wrong offset shows, and inside the
// modeled address space, so a stream of it decodes. 512 consecutive lanes
// share a 4KB page, as a warp's accesses coalesce, and an odd multiplier
// permutes the page numbers, so pages are first touched out of address
// order.
func laneAddr(n uint64) memory.VAddr {
	page := (n >> 9) * 0x9e3779b97f4a7c15 & (1<<memory.VPNBits - 1)
	return memory.VAddr(page<<memory.PageShift | (n&511)<<3)
}

// emitter is the warp-emitter API the two builders share.
type emitter[E any] interface {
	Load(...memory.VAddr) E
	Store(...memory.VAddr) E
	Compute(uint64) E
	ScratchLoad(uint64) E
	ScratchStore(uint64) E
}

// drive makes ops' calls on a builder, given its Warp and Barrier
// methods, and returns the number of lanes emitted. Lane n's address is
// laneAddr(n).
func drive[E emitter[E]](ops []builderOp, warp func() E, barrier func()) uint64 {
	lanes := make([]memory.VAddr, maxLanes) // one buffer, reused: builders must copy it
	w := warp()
	var n uint64
	for _, op := range ops {
		switch op.kind {
		case opWarp:
			w = warp()
		case opLoad, opStore:
			addrs := lanes[:op.lanes]
			for i := range addrs {
				addrs[i] = laneAddr(n)
				n++
			}
			if op.kind == opLoad {
				w.Load(addrs...)
			} else {
				w.Store(addrs...)
			}
		case opCompute:
			w.Compute(op.cycles)
		case opScratchLoad:
			w.ScratchLoad(op.cycles)
		case opScratchStore:
			w.ScratchStore(op.cycles)
		case opBarrier:
			barrier()
		}
	}
	return n
}

// buildBoth drives the block-staged Builder, a streaming Builder and the
// append-grown reference with ops and fails unless all three build the
// same trace: the streamed one is its stream materialized. It also checks
// that a trace staged in more than one block gets an exact-size arena,
// that one staged in a single block keeps that block as its arena, that a
// second Build returns the same trace, and that a Builder Reset halfway
// through another stream at another shape (what a job that panicked leaves
// behind), or after a Build, builds the same trace again.
func buildBoth(t testing.TB, numCUs, warpsPer int, ops []builderOp) {
	t.Helper()
	b, ref := NewBuilder("diff", 3, numCUs, warpsPer), newRefBuilder("diff", 3, numCUs, warpsPer)
	n := drive(ops, b.Warp, b.Barrier)
	drive(ops, ref.Warp, ref.Barrier)
	if b.staged != n {
		t.Fatalf("staged %d lanes, emitted %d", b.staged, n)
	}
	multi, first := len(b.full) > 0, b.block
	tr, want := b.Build(), ref.Build()
	if !reflect.DeepEqual(tr, want) {
		describeDiff(t, tr, want)
	}
	switch {
	case multi && len(tr.Arena) != cap(tr.Arena):
		t.Fatalf("arena of %d lanes staged in several blocks has capacity %d, want exact", len(tr.Arena), cap(tr.Arena))
	case !multi && n > 0 && &tr.Arena[0] != &first[0]:
		t.Fatalf("arena of %d lanes that fit the first block was copied", n)
	}
	if again := b.Build(); again != tr || !reflect.DeepEqual(again, want) {
		t.Fatal("a second Build returned a different trace")
	}
	if streamed := buildStreamed(t, numCUs, warpsPer, ops); !reflect.DeepEqual(streamed, want) {
		describeDiff(t, streamed, want)
	}
	r := NewBuilder("other", 9, warpsPer+2, numCUs)
	drive(ops[len(ops)/2:], r.Warp, r.Barrier)
	for i := 0; i < 2; i++ {
		r.Reset("diff", 3, numCUs, warpsPer)
		drive(ops, r.Warp, r.Barrier)
		if tr := r.Build(); !sameTrace(tr, want) {
			describeDiff(t, tr, want)
		}
	}
}

// sameTrace reports whether two traces hold the same name, ASID,
// instructions and lanes. Unlike reflect.DeepEqual it takes an empty
// slice for a nil one: a Reset Builder keeps an emptied warp's slice.
func sameTrace(a, b *Trace) bool {
	if a.Name != b.Name || a.ASID != b.ASID || len(a.CUs) != len(b.CUs) || !slices.Equal(a.Arena, b.Arena) {
		return false
	}
	for c := range a.CUs {
		if !slices.EqualFunc(a.CUs[c].Warps, b.CUs[c].Warps, slices.Equal) {
			return false
		}
	}
	return true
}

// streamBudget is the streaming leg's chunk budget: small enough that
// chunks are cut every few accesses and a barrier's Budget/4 cut fires.
const streamBudget = 1 << 10

// buildStreamed drives a streaming Builder with ops and returns its
// stream materialized.
func buildStreamed(t testing.TB, numCUs, warpsPer int, ops []builderOp) *Trace {
	t.Helper()
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf, "diff", 3, numCUs, warpsPer, ChunkOptions{Budget: streamBudget})
	sb := NewStreamingBuilder(cw)
	drive(ops, sb.Warp, sb.Barrier)
	if err := cw.Close(); err != nil {
		t.Fatalf("streaming Builder: %v", err)
	}
	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer c.Close()
	tr, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return tr
}

// describeDiff fails with the first difference between two traces.
func describeDiff(t testing.TB, got, want *Trace) {
	t.Helper()
	if len(got.Arena) != len(want.Arena) {
		t.Fatalf("arena holds %d lanes, reference %d", len(got.Arena), len(want.Arena))
	}
	for i := range got.Arena {
		if got.Arena[i] != want.Arena[i] {
			t.Fatalf("arena lane %d = %#x, reference %#x", i, uint64(got.Arena[i]), uint64(want.Arena[i]))
		}
	}
	if len(got.CUs) != len(want.CUs) {
		t.Fatalf("%d CUs, reference %d", len(got.CUs), len(want.CUs))
	}
	for c := range want.CUs {
		if len(got.CUs[c].Warps) != len(want.CUs[c].Warps) {
			t.Fatalf("cu %d: %d warps, reference %d", c, len(got.CUs[c].Warps), len(want.CUs[c].Warps))
		}
		for w := range want.CUs[c].Warps {
			g, r := got.CUs[c].Warps[w], want.CUs[c].Warps[w]
			if len(g) != len(r) {
				t.Fatalf("cu %d warp %d: %d insts, reference %d", c, w, len(g), len(r))
			}
			for i := range r {
				if g[i] != r[i] {
					t.Fatalf("cu %d warp %d inst %d = %+v, reference %+v", c, w, i, g[i], r[i])
				}
			}
		}
	}
	t.Fatalf("traces differ: %s %d, reference %s %d", got.Name, got.ASID, want.Name, want.ASID)
}

// loads returns count loads of lanes lanes each, every one from the next
// warp context, with a barrier after every 64.
func loads(count, lanes int) []builderOp {
	var ops []builderOp
	for i := 0; i < count; i++ {
		kind := opLoad
		if i%3 == 2 {
			kind = opStore
		}
		ops = append(ops, builderOp{kind: opWarp}, builderOp{kind: kind, lanes: lanes})
		if i%64 == 63 {
			ops = append(ops, builderOp{kind: opBarrier})
		}
	}
	return ops
}

// lcgOps returns a pseudo-random op stream of n ops.
func lcgOps(seed uint64, n int) []builderOp {
	ops := make([]builderOp, n)
	for i := range ops {
		seed = seed*6364136223846793005 + 1442695040888963407
		r := seed >> 16
		ops[i] = builderOp{kind: int(r % numOps), lanes: int(r>>8) % (maxLanes + 1), cycles: r >> 32 % 100}
		if r>>20%4 == 0 { // mostly warp-sized accesses, as the generators make
			ops[i].lanes = 32
		}
	}
	return ops
}

// TestBuilderMatchesReference holds the block-staged builder, and the
// stream a streaming builder writes, to the append-grown builder they
// replaced: the same instruction streams, offsets and arena, at and
// across every block boundary and chunk cut.
func TestBuilderMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		ops  []builderOp
	}{
		{"no memory access", []builderOp{
			{kind: opCompute, cycles: 5}, {kind: opWarp}, {kind: opScratchLoad, cycles: 2},
			{kind: opLoad}, {kind: opStore}, {kind: opBarrier}, {kind: opScratchStore, cycles: 3},
			{kind: opCompute}, {kind: opScratchLoad},
		}},
		{"fills the first block exactly", loads(8, 32)},
		{"fills the first block, then the next", loads(9, 32)},
		{"one access is the first block", loads(1, firstBlock)},
		{"straddles the first two blocks", loads(2, 200)},
		{"longer than the first block", loads(1, 1000)},
		{"maxLanes from the start", loads(3, maxLanes)},
		{"fills the second block exactly", append(loads(1, firstBlock-1), loads(1, 2*firstBlock+1)...)},
		{"past several 64K blocks", loads(130, maxLanes)},
		{"odd lanes past several 64K blocks", loads(700, 777)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, shape := range [][2]int{{1, 1}, {4, 2}, {3, 5}} {
				buildBoth(t, shape[0], shape[1], c.ops)
			}
		})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		buildBoth(t, int(seed%4)+1, int(seed%3)+1, lcgOps(seed, 600))
	}
}

// fuzzMaxStaged caps the lanes a decoded op stream stages (4 MiB of
// addresses, past several 64K blocks).
const fuzzMaxStaged = 1 << 19

// decodeBuilderOps reads a shape byte pair and then three bytes per op:
// the op kind (low three bits, modulo numOps) with a repeat count (high
// five bits, plus one), and a little-endian 16-bit lane count, modulo
// maxLanes+1, that doubles as the duration.
func decodeBuilderOps(data []byte) (numCUs, warpsPer int, ops []builderOp) {
	if len(data) < 2 {
		return 1, 1, nil
	}
	numCUs, warpsPer = int(data[0]%4)+1, int(data[1]%4)+1
	staged := 0
	for i := 2; i+3 <= len(data); i += 3 {
		kind, repeat := int(data[i]&7)%numOps, int(data[i]>>3)+1
		v := int(data[i+1]) | int(data[i+2])<<8
		op := builderOp{kind: kind, lanes: v % (maxLanes + 1), cycles: uint64(v)}
		for ; repeat > 0; repeat-- {
			if kind == opLoad || kind == opStore {
				if staged+op.lanes > fuzzMaxStaged {
					break
				}
				staged += op.lanes
			}
			ops = append(ops, op)
		}
	}
	return numCUs, warpsPer, ops
}

// FuzzBuilderDifferential drives the block-staged builder, a streaming
// builder and the append-grown reference with one decoded op stream; the
// traces must be equal.
func FuzzBuilderDifferential(f *testing.F) {
	f.Add([]byte{0, 0})
	// A load of 32 lanes, a warp switch, a store of 200, a barrier and a
	// load of 100, which straddles the first two blocks.
	f.Add([]byte{3, 1, 1, 32, 0, 0, 0, 0, 2, 200, 0, 6, 0, 0, 1, 100, 0})
	// 33 loads of maxLanes (past the first 64K block), a barrier, 32
	// stores of 777.
	f.Add([]byte{1, 2, 1, 0, 0x10, 0xf9, 0, 0x10, 6, 0, 0, 0xfa, 0x09, 0x03})
	// 96 loads of maxLanes: several 64K blocks.
	f.Add([]byte{0, 3, 0xf9, 0, 0x10, 0, 0, 0, 0xf9, 0, 0x10, 0xf9, 0, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		numCUs, warpsPer, ops := decodeBuilderOps(data)
		buildBoth(t, numCUs, warpsPer, ops)
	})
}

// TestBuildArenaAllocations pins what building costs in arena bytes: a
// trace of 2^20 lanes allocates its staging blocks and one exact-size
// arena, about twice the arena (an append-grown arena allocates about
// five times it), and a trace that fits the first block allocates its
// arena once.
func TestBuildArenaAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lanes := make([]memory.VAddr, maxLanes)
	for i := range lanes {
		lanes[i] = laneAddr(uint64(i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBuilder("big", 1, 4, 2)
	for i := 0; i < 256; i++ {
		b.Warp().Load(lanes...)
	}
	tr := b.Build()
	runtime.ReadMemStats(&after)
	arena := float64(len(tr.Arena) * 8)
	if len(tr.Arena) != 1<<20 {
		t.Fatalf("arena holds %d lanes, want %d", len(tr.Arena), 1<<20)
	}
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("building 2^20 lanes allocated %.0f B, %.2f times the %.0f B arena", got, got/arena, arena)
	if got > 2.1*arena {
		t.Errorf("building 2^20 lanes allocated %.0f B, %.2f times the arena (limit 2.1)", got, got/arena)
	}

	// 224 lanes in loads of 32, as a tenant-churn kernel makes, against
	// the same instruction streams without lanes.
	small := func(withLanes bool) func() {
		return func() {
			b := NewBuilder("small", 1, 4, 2)
			for i := 0; i < 7; i++ {
				if withLanes {
					b.Warp().Load(lanes[:32]...)
				} else {
					b.Warp().Compute(1)
				}
			}
			b.Build()
		}
	}
	arenaAllocs := testing.AllocsPerRun(20, small(true)) - testing.AllocsPerRun(20, small(false))
	if arenaAllocs != 1 {
		t.Errorf("a trace of 224 lanes made %v allocations for its arena, want 1", arenaAllocs)
	}
}

// TestResetKeepsStorage: a Builder Reset for another trace of the same
// shape and size builds it without allocating, whether the last trace fit
// its first block or was copied from several into an exact-size arena; a
// Builder Reset across shapes builds what a fresh Builder of each shape
// builds, and once it has built at each shape, rebuilding at any of them
// allocates nothing; and a streaming Builder, whose chunks its writer
// owns, cannot be Reset.
func TestResetKeepsStorage(t *testing.T) {
	lanes := make([]memory.VAddr, 32)
	for i := range lanes {
		lanes[i] = laneAddr(uint64(i))
	}
	for _, accesses := range []int{7, 300} { // 224 lanes, one block; 9,600, several
		b := NewBuilder("reset", 1, 4, 2)
		build := func() {
			b.Reset("reset", 2, 4, 2)
			for i := 0; i < accesses; i++ {
				b.Warp().Load(lanes...).Compute(1)
			}
			b.Barrier()
			b.Build()
		}
		build()
		if got := testing.AllocsPerRun(10, build); got != 0 {
			t.Errorf("rebuilding %d accesses after Reset allocates %v times, want 0", accesses, got)
		}
		if tr := b.Build(); tr.Name != "reset" || tr.ASID != 2 || len(tr.Arena) != 32*accesses {
			t.Errorf("rebuilt trace %q asid %d with %d lanes, want \"reset\" asid 2 with %d", tr.Name, tr.ASID, len(tr.Arena), 32*accesses)
		}
	}

	// 300 accesses of 32 lanes, each with its own first lane, in three
	// kernels: 9,600 lanes, several blocks.
	emit := func(b *Builder) {
		for i := 0; i < 300; i++ {
			lanes[0] = laneAddr(uint64(1000 + i))
			b.Warp().Load(lanes...).Compute(uint64(i % 7))
			if i%100 == 99 {
				b.Barrier()
			}
		}
	}
	shapes := [][2]int{{4, 2}, {16, 8}, {1, 1}, {4, 2}}
	b := NewBuilder("", 0, 1, 1)
	for _, sh := range shapes {
		b.Reset("reshape", 4, sh[0], sh[1])
		emit(b)
		fresh := NewBuilder("reshape", 4, sh[0], sh[1])
		emit(fresh)
		if got, want := b.Build(), fresh.Build(); !sameTrace(got, want) {
			describeDiff(t, got, want)
		}
	}
	rebuild := func() {
		for _, sh := range shapes {
			b.Reset("reshape", 4, sh[0], sh[1])
			emit(b)
			b.Build()
		}
	}
	if got := testing.AllocsPerRun(5, rebuild); got != 0 {
		t.Errorf("rebuilding at every shape again allocates %v times, want 0", got)
	}

	defer func() {
		if r := recover(); r == nil {
			t.Error("Reset of a streaming Builder did not panic")
		}
	}()
	NewStreamingBuilder(NewChunkWriter(&bytes.Buffer{}, "s", 1, 1, 1, ChunkOptions{})).Reset("s", 1, 1, 1)
}

// TestAccessLaneLimits: an access's lane count is an Inst's uint16, so
// either backend panics on more than 65,535 lanes instead of wrapping the
// count. Up to that, an access builds, and what rejects one of more than
// maxLanes lanes is Validate, or for a stream the chunk encoder's check.
func TestAccessLaneLimits(t *testing.T) {
	lanes := make([]memory.VAddr, 1<<16+64)
	for i := range lanes {
		lanes[i] = laneAddr(uint64(i))
	}
	backends := map[string]func() (*Builder, func() error){
		"materializing": func() (*Builder, func() error) {
			b := NewBuilder("lanes", 1, 1, 1)
			return b, func() error { return b.Build().Validate() }
		},
		"streaming": func() (*Builder, func() error) {
			cw := NewChunkWriter(&bytes.Buffer{}, "lanes", 1, 1, 1, ChunkOptions{Budget: streamBudget})
			return NewStreamingBuilder(cw), cw.Close
		},
	}
	for name, backend := range backends {
		b, _ := backend()
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "65535 lanes") {
					t.Errorf("%s: a load of %d lanes did not panic on the lane count: %v", name, len(lanes), r)
				}
			}()
			b.Warp().Load(lanes...)
		}()
		for _, n := range []int{maxLanes, maxLanes + 1, 1<<16 - 1} {
			b, finish := backend()
			b.Warp().Load(lanes[:n]...).Compute(1)
			err := finish()
			want := fmt.Sprintf("load with %d lanes (want 1 to %d)", n, maxLanes)
			if n <= maxLanes && err != nil || n > maxLanes && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Errorf("%s: a load of %d lanes: %v", name, n, err)
			}
		}
	}
}
