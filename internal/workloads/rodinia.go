package workloads

import (
	"vcache/internal/memory"
	"vcache/internal/trace"
)

// emitKMeans emits k-means clustering: lanes map to points; each
// iteration streams every point's features (short-stride, page-local),
// reads the centroids (tiny, cache-resident), and stores the assignment.
// Regular access with low translation demand, as the paper observes.
func emitKMeans(p Params, b *trace.Builder) {
	const dims = 8
	n := 8192 * p.Scale
	l := newLayout()
	ptsB := l.array(n*dims, 4)
	centB := l.array(8*dims, 4)
	asgB := l.array(n, 4)

	var lanes [warpLanes]memory.VAddr
	for iter := 0; iter < 3; iter++ {
		for p0 := 0; p0 < n; p0 += 32 {
			w := b.Warp()
			for d := 0; d < dims; d++ {
				addrs := make([]memory.VAddr, 32)
				for lane := 0; lane < 32; lane++ {
					addrs[lane] = elem4(ptsB, int32((p0+lane)*dims+d))
				}
				w.Load(addrs...)
			}
			w.Load(centB, centB+128, centB+256) // centroid lines (hot)
			w.Compute(16)
			w.Store(coalescedAddrs(lanes[:0], asgB, int32(p0), 32)...)
		}
		b.Barrier()
	}
}

// emitBackprop emits a two-layer neural network pass: the weight matrix
// streams row-by-row in both the forward and the weight-update phases.
// Long sequential sweeps: big footprint, regular translations.
func emitBackprop(p Params, b *trace.Builder) {
	in := 512 * p.Scale
	const hidden = 256
	l := newLayout()
	wB := l.array(in*hidden, 4)
	inB := l.array(in, 4)
	hidB := l.array(hidden, 4)
	gradB := l.array(in*hidden, 4)
	var lanes [warpLanes]memory.VAddr

	// Forward: hidden units in warps of 32; stream all inputs' weights.
	for h0 := 0; h0 < hidden; h0 += 32 {
		w := b.Warp()
		for i := 0; i < in; i += 4 { // sample every 4th input row
			addrs := make([]memory.VAddr, 32)
			for lane := 0; lane < 32; lane++ {
				addrs[lane] = elem4(wB, int32(i*hidden+h0+lane))
			}
			w.Load(addrs...)
			if i%64 == 0 {
				w.Load(elem4(inB, int32(i)))
				w.Compute(2)
			}
		}
		w.Store(coalescedAddrs(lanes[:0], hidB, int32(h0), 32)...)
	}
	b.Barrier()
	// Backward: weight gradient stores stream the same matrix.
	for h0 := 0; h0 < hidden; h0 += 32 {
		w := b.Warp()
		for i := 0; i < in; i += 4 {
			addrs := make([]memory.VAddr, 32)
			for lane := 0; lane < 32; lane++ {
				addrs[lane] = elem4(gradB, int32(i*hidden+h0+lane))
			}
			w.Load(elem4(hidB, int32(h0)))
			w.Compute(1)
			w.Store(addrs...)
		}
	}
	b.Barrier()
}

// emitBFS emits Rodinia's level-synchronous breadth-first search over the
// synthetic power-law graph: frontier nodes stream adjacency and gather
// neighbour distances (divergent), with a device barrier per level.
func emitBFS(p Params, b *trace.Builder) {
	r := newRNG(p.Seed + 5)
	g := genGraph(r, graphSize(p), 5, 32)
	l := newLayout()
	rowB := l.array(int(g.n)+1, 4)
	colB := l.array(len(g.col), 4)
	distB := l.nodeArray(int(g.n))

	for _, lv := range bfsLevels(g, 0) {
		emitBFSLevel(b, g, lv, rowB, colB, []memory.VAddr{distB}, distB)
		b.Barrier()
	}
}

// emitHotspot emits the 2D thermal stencil: each cell reads its four
// neighbours and the power grid — row-contiguous, strongly coalesced, low
// translation demand.
func emitHotspot(p Params, b *trace.Builder) {
	side := 256 * p.Scale
	l := newLayout()
	tempB := l.array(side*side, 4)
	powerB := l.array(side*side, 4)
	outB := l.array(side*side, 4)

	addr := func(base memory.VAddr, r, c int) memory.VAddr {
		return elem4(base, int32(r*side+c))
	}
	rowAddrs := func(base memory.VAddr, r, c0 int) []memory.VAddr {
		out := make([]memory.VAddr, 32)
		for lane := 0; lane < 32; lane++ {
			out[lane] = addr(base, r, c0+lane)
		}
		return out
	}

	for step := 0; step < 2; step++ {
		for row := 1; row < side-1; row++ {
			for c0 := 0; c0+32 <= side; c0 += 32 {
				w := b.Warp()
				w.Load(rowAddrs(tempB, row, c0)...)
				w.Load(rowAddrs(tempB, row-1, c0)...)
				w.Load(rowAddrs(tempB, row+1, c0)...)
				w.Load(rowAddrs(powerB, row, c0)...)
				w.Compute(8)
				w.Store(rowAddrs(outB, row, c0)...)
			}
		}
		b.Barrier()
	}
}

// emitLUD emits blocked LU decomposition on a page-padded matrix: the
// diagonal tile streams through scratch, the row panel is coalesced, and
// the column panel is accessed down the matrix — one page per lane, the
// divergent phase that gives lud its translation demand.
func emitLUD(p Params, b *trace.Builder) {
	n := 128 * p.Scale
	l := newLayout()
	mB := l.array(n*memory.PageSize/4, 4)

	const tile = 32
	var lanes [tile]memory.VAddr
	for kb := 0; kb < n/tile; kb++ {
		k0 := kb * tile
		// Diagonal tile: through scratch.
		w := b.Warp()
		for rr := 0; rr < tile; rr++ {
			w.Load(coalescedRow(lanes[:0], mB, k0+rr, k0, tile)...)
			w.ScratchStore(1)
		}
		w.Compute(64)
		for rr := 0; rr < tile; rr++ {
			w.Store(coalescedRow(lanes[:0], mB, k0+rr, k0, tile)...)
		}
		b.Barrier()
		// Row panel (coalesced) and column panel (divergent: one lane per
		// row, each row on its own page).
		for tj := k0 + tile; tj < n; tj += tile {
			w := b.Warp()
			for rr := 0; rr < tile; rr++ {
				w.Load(coalescedRow(lanes[:0], mB, k0+rr, tj, tile)...)
			}
			w.Compute(32)
			for rr := 0; rr < tile; rr++ {
				w.Store(coalescedRow(lanes[:0], mB, k0+rr, tj, tile)...)
			}
		}
		for ti := k0 + tile; ti < n; ti += tile {
			w := b.Warp()
			for cc := 0; cc < tile; cc += 8 {
				col := make([]memory.VAddr, tile)
				for lane := 0; lane < tile; lane++ {
					col[lane] = fwAddr(mB, ti+lane, k0+cc)
				}
				w.Load(col...)
				w.Compute(4)
				w.Store(col...)
			}
		}
		b.Barrier()
		// Interior update: each remaining tile reads its row/col panels.
		for ti := k0 + tile; ti < n; ti += tile {
			for tj := k0 + tile; tj < n; tj += tile {
				w := b.Warp()
				for rr := 0; rr < tile; rr += 4 {
					w.Load(coalescedRow(lanes[:0], mB, ti+rr, tj, tile)...)
					w.Load(coalescedRow(lanes[:0], mB, k0+rr, tj, tile)...)
				}
				w.Compute(32)
				for rr := 0; rr < tile; rr += 4 {
					w.Store(coalescedRow(lanes[:0], mB, ti+rr, tj, tile)...)
				}
			}
		}
		b.Barrier()
	}
}

// emitNW emits Needleman-Wunsch: anti-diagonal waves of 32x32 blocks, each
// block bursting its rows from global memory into the scratchpad, computing
// there, and bursting results back — the bursty global-access pattern the
// paper calls out for nw (high per-CU TLB miss ratio, low sustained
// translation demand because the scratchpad dominates).
func emitNW(p Params, b *trace.Builder) {
	side := 256 * p.Scale
	const tile = 32
	l := newLayout()
	scoreB := l.array(side*side, 4)
	refB := l.array(side*side, 4)

	rowAddrs := func(base memory.VAddr, r, c0 int) []memory.VAddr {
		out := make([]memory.VAddr, tile)
		for lane := 0; lane < tile; lane++ {
			out[lane] = elem4(base, int32(r*side+c0+lane))
		}
		return out
	}

	nb := side / tile
	for wave := 0; wave < 2*nb-1; wave++ {
		for bi := 0; bi < nb; bi++ {
			bj := wave - bi
			if bj < 0 || bj >= nb {
				continue
			}
			w := b.Warp()
			// Burst block + reference into scratch.
			for rr := 0; rr < tile; rr++ {
				w.Load(rowAddrs(scoreB, bi*tile+rr, bj*tile)...)
				w.ScratchStore(1)
			}
			for rr := 0; rr < tile; rr += 2 {
				w.Load(rowAddrs(refB, bi*tile+rr, bj*tile)...)
				w.ScratchStore(1)
			}
			// DP wavefront inside the scratchpad.
			for step := 0; step < 2*tile; step++ {
				w.ScratchLoad(1)
				w.ScratchStore(1)
			}
			w.Compute(16)
			// Burst results back.
			for rr := 0; rr < tile; rr++ {
				w.Store(rowAddrs(scoreB, bi*tile+rr, bj*tile)...)
			}
		}
		b.Barrier()
	}
}

// emitPathfinder emits the row-by-row dynamic program: each step bursts a
// row of the cost grid into scratch, iterates there, and stores the result
// row; a device barrier separates rows. Scratch-dominated like nw.
func emitPathfinder(p Params, b *trace.Builder) {
	cols := 2048 * p.Scale
	const rows = 48
	l := newLayout()
	gridB := l.array(rows*cols, 4)
	resB := l.array(2*cols, 4)

	var lanes [warpLanes]memory.VAddr
	for row := 0; row < rows; row++ {
		for c0 := 0; c0+32 <= cols; c0 += 32 {
			w := b.Warp()
			w.Load(coalescedAddrs(lanes[:0], gridB, int32(row*cols+c0), 32)...)
			w.Load(coalescedAddrs(lanes[:0], resB, int32((row%2)*cols+c0), 32)...)
			w.ScratchStore(1)
			for s := 0; s < 6; s++ {
				w.ScratchLoad(1)
				w.ScratchStore(1)
			}
			w.Compute(4)
			w.Store(coalescedAddrs(lanes[:0], resB, int32(((row+1)%2)*cols+c0), 32)...)
		}
		b.Barrier()
	}
}
