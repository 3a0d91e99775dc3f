package workloads

import (
	"io"
	"slices"
	"testing"

	"vcache/internal/trace"
)

// TestBuildIntoMatchesBuild: one Builder reset from generator to
// generator and from shape to shape, as a vcsimd worker's is, builds the
// trace Build builds every time.
func TestBuildIntoMatchesBuild(t *testing.T) {
	b := trace.NewBuilder("", 0, 1, 1)
	for _, shape := range [][2]int{{8, 4}, {4, 2}, {16, 8}, {8, 4}} {
		p := Params{Scale: 1, NumCUs: shape[0], WarpsPerCU: shape[1], Seed: 42}
		for _, g := range All() {
			if got, want := g.BuildInto(b, p), g.Build(p); !sameTrace(got, want) {
				t.Errorf("%s at %dx%d: BuildInto into a reused Builder differs from Build", g.Name, shape[0], shape[1])
			}
		}
	}
}

// sameTrace reports whether two traces hold the same name, ASID,
// instructions and lanes, taking an empty warp stream for a nil one: a
// reset Builder keeps an emptied warp's slice.
func sameTrace(a, b *trace.Trace) bool {
	if a.Name != b.Name || a.ASID != b.ASID || len(a.CUs) != len(b.CUs) || !slices.Equal(a.Arena, b.Arena) {
		return false
	}
	for c := range a.CUs {
		if !slices.EqualFunc(a.CUs[c].Warps, b.CUs[c].Warps, func(x, y trace.WarpTrace) bool { return slices.Equal(x, y) }) {
			return false
		}
	}
	return true
}

// TestGenerationAllocatesNothingPerAccess: generators refill stack lane
// buffers, so what a Build allocates (the graph and work lists, the
// Builder's staging blocks, arena and per-warp instruction streams) grows
// with the trace but not once per access. The allocations that Scale 2
// adds to Scale 1, over the memory instructions it adds, must stay near
// zero; a fresh lane slice per access reads 1 or more.
//
// lud is compared one scale up. Its Scale-1 trace holds a dozen
// instructions on most of its 32 warps and about a hundred at Scale 2, so
// that step mostly regrows the Builder's per-warp instruction streams
// (about four doublings each, 0.02 allocations per added access); the
// streams grow by doubling, which no generator controls.
func TestGenerationAllocatesNothingPerAccess(t *testing.T) {
	const maxPerInst = 0.01
	for _, g := range All() {
		base := 1
		if g.Name == "lud" {
			base = 2
		}
		var allocs [2]float64
		var insts [2]uint64
		for i := range allocs {
			p := Params{Scale: base + i, NumCUs: 8, WarpsPerCU: 4, Seed: 42}
			var tr *trace.Trace
			allocs[i] = testing.AllocsPerRun(1, func() { tr = g.Build(p) })
			insts[i] = tr.Summarize().MemInsts
		}
		if insts[1] <= insts[0] {
			t.Fatalf("%s: scale %d has %d memory instructions, scale %d %d", g.Name, base+1, insts[1], base, insts[0])
		}
		per := (allocs[1] - allocs[0]) / float64(insts[1]-insts[0])
		t.Logf("%-14s %7.0f -> %7.0f allocs, %8d -> %8d memory instructions: %.5f per added instruction",
			g.Name, allocs[0], allocs[1], insts[0], insts[1], per)
		if per > maxPerInst {
			t.Errorf("%s: %.4f allocations per added memory instruction, want <= %g", g.Name, per, maxPerInst)
		}
	}
}

// built keeps BenchmarkBuild's traces live, so no Build can be optimized
// away.
var built *trace.Trace

// BenchmarkBuild times every generator at the default parameters in both
// forms: Build, which materializes the trace, and BuildChunked, which
// streams it (here into io.Discard).
func BenchmarkBuild(b *testing.B) {
	p := DefaultParams()
	for _, g := range All() {
		b.Run(g.Name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				built = g.Build(p)
			}
		})
		b.Run(g.Name+"/chunked", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.BuildChunked(p, io.Discard, trace.ChunkOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
