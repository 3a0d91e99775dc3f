package trace

// The append-grown trace builder this package used before lane addresses
// were staged in blocks, kept as the reference model for the differential
// tests in builder_test.go: verbatim apart from renames (Builder →
// refBuilder, NewBuilder → newRefBuilder, WarpEmitter → refWarpEmitter),
// less NewStreamingBuilder and NumWarps, which those tests do not call,
// and less its streaming backend, whose chunk writer methods are gone:
// the streaming Builder is held to this materializing reference instead.

import "vcache/internal/memory"

// refBuilder assembles a Trace by distributing warp-sized work chunks across
// a fixed pool of warp contexts (NumCUs x WarpsPerCU), round-robin, the
// way a persistent-threads GPU kernel spreads blocks over compute units.
type refBuilder struct {
	tr       *Trace
	numCUs   int
	warpsPer int
	next     int // round-robin cursor over all warp contexts
}

// newRefBuilder creates a builder for numCUs compute units with warpsPerCU
// concurrent warp contexts each.
func newRefBuilder(name string, asid memory.ASID, numCUs, warpsPerCU int) *refBuilder {
	if numCUs <= 0 || warpsPerCU <= 0 {
		panic("trace: builder needs positive CU and warp counts")
	}
	t := &Trace{Name: name, ASID: asid, CUs: make([]CUTrace, numCUs)}
	for i := range t.CUs {
		t.CUs[i].Warps = make([]WarpTrace, warpsPerCU)
	}
	return &refBuilder{tr: t, numCUs: numCUs, warpsPer: warpsPerCU}
}

// Warp returns an emitter for the next warp context in round-robin order.
// Consecutive calls spread work evenly over CUs.
func (b *refBuilder) Warp() *refWarpEmitter {
	cu := b.next % b.numCUs
	warp := (b.next / b.numCUs) % b.warpsPer
	b.next++
	return &refWarpEmitter{b: b, cu: cu, warp: warp}
}

// Barrier appends a device-wide barrier to every warp context (a kernel
// boundary): no warp proceeds past it until all have reached it.
func (b *refBuilder) Barrier() {
	for c := range b.tr.CUs {
		for w := range b.tr.CUs[c].Warps {
			b.tr.CUs[c].Warps[w] = append(b.tr.CUs[c].Warps[w], Inst{Kind: Barrier})
		}
	}
	// Restart distribution from warp 0 so the next kernel spreads evenly.
	b.next = 0
}

// Build returns the assembled trace.
func (b *refBuilder) Build() *Trace { return b.tr }

// intern appends addrs to the arena and returns their (offset, count)
// reference.
func (b *refBuilder) intern(addrs []memory.VAddr) (uint32, uint16) {
	off := len(b.tr.Arena)
	if uint64(off)+uint64(len(addrs)) > 1<<32 {
		panic("trace: arena exceeds 4G lane addresses")
	}
	b.tr.Arena = append(b.tr.Arena, addrs...)
	return uint32(off), uint16(len(addrs))
}

// refWarpEmitter appends instructions to one warp context.
type refWarpEmitter struct {
	b    *refBuilder
	cu   int
	warp int
}

func (w *refWarpEmitter) emit(in Inst) *refWarpEmitter {
	cu := &w.b.tr.CUs[w.cu]
	cu.Warps[w.warp] = append(cu.Warps[w.warp], in)
	return w
}

// Load appends a global load touching the given lane addresses.
func (w *refWarpEmitter) Load(addrs ...memory.VAddr) *refWarpEmitter {
	if len(addrs) == 0 {
		return w
	}
	off, lanes := w.b.intern(addrs)
	return w.emit(Inst{Kind: Load, Off: off, Lanes: lanes})
}

// Store appends a global store touching the given lane addresses.
func (w *refWarpEmitter) Store(addrs ...memory.VAddr) *refWarpEmitter {
	if len(addrs) == 0 {
		return w
	}
	off, lanes := w.b.intern(addrs)
	return w.emit(Inst{Kind: Store, Off: off, Lanes: lanes})
}

// Compute appends cycles of computation.
func (w *refWarpEmitter) Compute(cycles uint64) *refWarpEmitter {
	if cycles == 0 {
		return w
	}
	return w.emit(Inst{Kind: Compute, Cycles: cycles})
}

// ScratchLoad appends a scratchpad read of the given duration.
func (w *refWarpEmitter) ScratchLoad(cycles uint64) *refWarpEmitter {
	return w.emit(Inst{Kind: ScratchLoad, Cycles: cycles})
}

// ScratchStore appends a scratchpad write of the given duration.
func (w *refWarpEmitter) ScratchStore(cycles uint64) *refWarpEmitter {
	return w.emit(Inst{Kind: ScratchStore, Cycles: cycles})
}
