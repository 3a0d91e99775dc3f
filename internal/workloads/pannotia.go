package workloads

import (
	"vcache/internal/memory"
	"vcache/internal/trace"
)

// graphSize returns the node count for the Pannotia-style inputs at the
// given scale.
func graphSize(p Params) int { return 24576 * p.Scale }

// emitPageRank emits a CSR pull-style PageRank: each node streams its row
// pointers and column indices, gathers the neighbours' ranks (divergent),
// and stores its new rank. Two iterations separated by a device barrier.
func emitPageRank(p Params, b *trace.Builder) {
	r := newRNG(p.Seed)
	g := genGraph(r, graphSize(p), 6, 32)
	l := newLayout()
	rowB := l.array(int(g.n)+1, 4)
	colB := l.array(len(g.col), 4)
	rankB := l.nodeArray(int(g.n))  // gathered: previous iteration's ranks
	rankOut := l.array(int(g.n), 4) // packed per-iteration output

	src, dst := rankB, rankOut
	all := g.nodes()
	for iter := 0; iter < 3; iter++ {
		for start := 0; start < len(all); start += warpLanes {
			chunk := warpChunk(all, start)
			w := b.Warp()
			gatherPhase(w, g, chunk, rowB, colB, nil, []memory.VAddr{src})
			w.Compute(4)
			storeChunk(w, dst, chunk)
		}
		b.Barrier()
	}
}

// emitPageRankSpmv is the SpMV formulation: the per-edge value array is
// streamed alongside the column indices, and x is gathered.
func emitPageRankSpmv(p Params, b *trace.Builder) {
	r := newRNG(p.Seed + 1)
	g := genGraph(r, graphSize(p), 6, 32)
	l := newLayout()
	rowB := l.array(int(g.n)+1, 4)
	colB := l.array(len(g.col), 4)
	valB := l.array(len(g.col), 4)
	xB := l.nodeArray(int(g.n))
	yB := l.array(int(g.n), 4) // packed output vector

	all := g.nodes()
	for iter := 0; iter < 3; iter++ {
		for start := 0; start < len(all); start += warpLanes {
			chunk := warpChunk(all, start)
			w := b.Warp()
			gatherPhase(w, g, chunk, rowB, colB, []memory.VAddr{valB}, []memory.VAddr{xB})
			w.Compute(4)
			storeChunk(w, yB, chunk)
		}
		b.Barrier()
	}
}

// emitColorMax emits Pannotia's graph colouring: every uncoloured node
// gathers its neighbours' random priorities and colour states each
// iteration, colouring itself when it holds the local maximum.
func emitColorMax(p Params, b *trace.Builder) {
	emitColor(p, b, false)
}

// emitColorMaxMin is the max-min variant, colouring two independent sets
// per iteration (local maxima and local minima), with a second result
// store per round.
func emitColorMaxMin(p Params, b *trace.Builder) {
	emitColor(p, b, true)
}

func emitColor(p Params, b *trace.Builder, maxmin bool) {
	r := newRNG(p.Seed + 2)
	g := genGraph(r, graphSize(p), 6, 32)
	l := newLayout()
	rowB := l.array(int(g.n)+1, 4)
	colB := l.array(len(g.col), 4)
	prioB := l.nodeArray(int(g.n))
	stateB := l.nodeArray(int(g.n))
	colorMaxB := l.array(int(g.n), 4) // packed colour outputs
	colorMinB := l.array(int(g.n), 4)
	stateOut := l.array(int(g.n), 4) // packed double-buffered state

	// Host-side execution of the real algorithm: nodes holding the local
	// maximum (and, for maxmin, minimum) priority among uncoloured
	// neighbours colour themselves each round; the active set shrinks
	// round by round, so later kernels touch less of the graph — the
	// convergence shape of the Pannotia colouring codes.
	// Pannotia's colouring priority is degree-major (random tie-break), so
	// dense hubs colour in the first rounds and the leftover rounds over
	// the sparse remainder are cheap.
	prio := make([]uint32, g.n)
	for i := range prio {
		prio[i] = uint32(g.deg(int32(i)))<<24 | uint32(r.u64())&0xFFFFFF
	}
	colored := make([]bool, g.n)
	active := g.nodes()

	const maxRounds = 4
	for round := 0; round < maxRounds && len(active) > 0; round++ {
		for start := 0; start < len(active); start += warpLanes {
			chunk := warpChunk(active, start)
			w := b.Warp()
			gatherPhase(w, g, chunk, rowB, colB, nil, []memory.VAddr{prioB, stateB})
			w.Compute(6)
			storeChunk(w, colorMaxB, chunk)
			if maxmin {
				storeChunk(w, colorMinB, chunk)
			}
			storeChunk(w, stateOut, chunk)
		}
		b.Barrier()
		// Decide who coloured this round; survivors stay active.
		var next []int32
		for _, v := range active {
			isMax, isMin := true, true
			for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
				u := g.col[e]
				if u == v || colored[u] {
					continue
				}
				if prio[u] > prio[v] {
					isMax = false
				}
				if prio[u] < prio[v] {
					isMin = false
				}
			}
			if isMax || (maxmin && isMin) {
				colored[v] = true
			} else {
				next = append(next, v)
			}
		}
		active = next
	}
}

// emitMIS emits Pannotia's maximal independent set: nodes gather
// neighbour status and priority each round and update their own status.
func emitMIS(p Params, b *trace.Builder) {
	r := newRNG(p.Seed + 3)
	g := genGraph(r, graphSize(p), 6, 32)
	l := newLayout()
	rowB := l.array(int(g.n)+1, 4)
	colB := l.array(len(g.col), 4)
	statusB := l.nodeArray(int(g.n))
	prioB := l.nodeArray(int(g.n))
	statusOut := l.array(int(g.n), 4) // packed double-buffered status

	// Host-side greedy-Luby execution with degree-major priorities:
	// undecided nodes with the locally maximal priority join the set and
	// knock their neighbours out, so the undecided set collapses quickly.
	prio := make([]uint32, g.n)
	for i := range prio {
		prio[i] = uint32(g.deg(int32(i)))<<24 | uint32(r.u64())&0xFFFFFF
	}
	const (
		undecided = iota
		in
		out
	)
	status := make([]uint8, g.n)
	active := g.nodes()

	const maxRounds = 4
	for round := 0; round < maxRounds && len(active) > 0; round++ {
		for start := 0; start < len(active); start += warpLanes {
			chunk := warpChunk(active, start)
			w := b.Warp()
			gatherPhase(w, g, chunk, rowB, colB, nil, []memory.VAddr{statusB, prioB})
			w.Compute(4)
			storeChunk(w, statusOut, chunk)
		}
		b.Barrier()
		// Join the independent set where locally maximal; then knock out
		// neighbours of the new members.
		var winners []int32
		for _, v := range active {
			localMax := true
			for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
				u := g.col[e]
				if u != v && status[u] == undecided && prio[u] > prio[v] {
					localMax = false
					break
				}
			}
			if localMax {
				winners = append(winners, v)
			}
		}
		for _, v := range winners {
			if status[v] != undecided {
				continue // knocked out by an earlier winner this round
			}
			status[v] = in
			for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
				if u := g.col[e]; u != v && status[u] == undecided {
					status[u] = out
				}
			}
		}
		var next []int32
		for _, v := range active {
			if status[v] == undecided {
				next = append(next, v)
			}
		}
		active = next
	}
}

// bfsLevels computes BFS levels from src (host-side), returning level lists.
func bfsLevels(g *graph, src int32) [][]int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int32{src}
	levels := [][]int32{frontier}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
				u := g.col[e]
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		next = sortedCopy(next)
		levels = append(levels, next)
		frontier = next
	}
	return levels
}

// emitBFSLevel emits one level-synchronous traversal step: frontier nodes
// stream their adjacency and gather/scatter per-node state.
func emitBFSLevel(b *trace.Builder, g *graph, frontier []int32, rowB, colB memory.VAddr, gathers []memory.VAddr, scatter memory.VAddr) {
	var laneBuf [warpLanes]memory.VAddr
	for start := 0; start < len(frontier); start += warpLanes {
		chunk := warpChunk(frontier, start)
		w := b.Warp()
		gatherPhase(w, g, chunk, rowB, colB, nil, gathers)
		w.Compute(2)
		if scatter != 0 {
			// Scatter updates to the discovered neighbours (divergent).
			lanes := laneBuf[:0]
			for _, v := range chunk {
				for e := g.rowPtr[v]; e < g.rowPtr[v+1] && len(lanes) < warpLanes; e++ {
					lanes = append(lanes, nodeAddr(scatter, g.col[e]))
				}
			}
			w.Store(lanes...)
		}
	}
}

// emitBC emits a betweenness-centrality skeleton: forward BFS passes from
// a few sources accumulating path counts, then backward dependency
// accumulation over the levels in reverse — both dominated by neighbour
// gathers, with device barriers between levels.
func emitBC(p Params, b *trace.Builder) {
	r := newRNG(p.Seed + 4)
	g := genGraph(r, graphSize(p), 6, 32)
	l := newLayout()
	rowB := l.array(int(g.n)+1, 4)
	colB := l.array(len(g.col), 4)
	distB := l.nodeArray(int(g.n))
	sigmaB := l.nodeArray(int(g.n))
	deltaB := l.nodeArray(int(g.n))
	deltaOut := l.array(int(g.n), 4) // packed dependency output

	for s := 0; s < 2; s++ {
		levels := bfsLevels(g, int32(r.n(int(g.n))))
		// Forward: discover levels, accumulating sigma.
		for _, lv := range levels {
			emitBFSLevel(b, g, lv, rowB, colB, []memory.VAddr{distB, sigmaB}, sigmaB)
			b.Barrier()
		}
		// Backward: dependency accumulation, deepest level first.
		for i := len(levels) - 1; i > 0; i-- {
			emitBFSLevel(b, g, levels[i], rowB, colB, []memory.VAddr{deltaB, sigmaB}, 0)
			for start := 0; start < len(levels[i]); start += warpLanes {
				w := b.Warp()
				storeChunk(w, deltaOut, warpChunk(levels[i], start))
			}
			b.Barrier()
		}
	}
}

// fwSize returns the Floyd-Warshall matrix dimension (rows are padded to a
// full page, so the footprint is n pages).
func fwSize(p Params) int { return 160 * p.Scale }

// fwAddr returns the address of dist[i][j] with page-padded rows.
func fwAddr(base memory.VAddr, i, j int) memory.VAddr {
	return base + memory.VAddr(i)*memory.PageSize + memory.VAddr(j)*4
}

// emitFW emits Floyd-Warshall relaxation rounds with lanes spread across
// rows: d[i][k] and d[i][j] loads touch a different page per lane, the
// heavily divergent pattern behind fw's very high translation demand
// (the paper measures 9.3 memory accesses per dynamic instruction).
func emitFW(p Params, b *trace.Builder) {
	n := fwSize(p)
	l := newLayout()
	dB := l.array(n*memory.PageSize/4, 4)

	const rounds = 6
	const jBlock = 8
	var dik, dij [warpLanes]memory.VAddr
	for kr := 0; kr < rounds; kr++ {
		k := kr * n / rounds
		for i0 := 0; i0 < n; i0 += warpLanes {
			lanes := min(warpLanes, n-i0)
			for j0 := 0; j0 < n; j0 += jBlock {
				w := b.Warp()
				// d[i][k]: one lane per row — fully divergent.
				for li := 0; li < lanes; li++ {
					dik[li] = fwAddr(dB, i0+li, k)
				}
				w.Load(dik[:lanes]...)
				for j := j0; j < j0+jBlock && j < n; j++ {
					w.Load(fwAddr(dB, k, j)) // broadcast row k
					for li := 0; li < lanes; li++ {
						dij[li] = fwAddr(dB, i0+li, j)
					}
					w.Load(dij[:lanes]...)
					w.Compute(1)
					w.Store(dij[:lanes]...)
				}
			}
		}
		b.Barrier()
	}
}

// emitFWBlock is the tiled variant: 32x32 tiles stream through the
// scratchpad row-by-row (coalesced), dramatically improving locality —
// the paper shows fw_block with far lower per-CU TLB miss ratios than fw.
func emitFWBlock(p Params, b *trace.Builder) {
	n := fwSize(p)
	l := newLayout()
	dB := l.array(n*memory.PageSize/4, 4)

	const tile = 32
	var lanes [tile]memory.VAddr
	rounds := n / tile
	for kb := 0; kb < rounds; kb++ {
		for ti := 0; ti < n; ti += tile {
			for tj := 0; tj < n; tj += tile {
				w := b.Warp()
				// Load the tile and the pivot tiles row-by-row into
				// scratch: each row of 32 4B elements is one 128B line.
				for rrow := 0; rrow < tile; rrow++ {
					w.Load(coalescedRow(lanes[:0], dB, ti+rrow, tj, tile)...)
					w.ScratchStore(1)
				}
				for rrow := 0; rrow < tile; rrow++ {
					w.Load(coalescedRow(lanes[:0], dB, kb*tile+rrow, tj, tile)...)
					w.ScratchStore(1)
				}
				// Compute within scratch.
				for c := 0; c < tile; c++ {
					w.ScratchLoad(1)
				}
				w.Compute(tile)
				for rrow := 0; rrow < tile; rrow++ {
					w.Store(coalescedRow(lanes[:0], dB, ti+rrow, tj, tile)...)
				}
			}
		}
		b.Barrier()
	}
}

// coalescedRow appends to dst the lane addresses of cols j0..j0+lanes-1 of
// row i of a page-padded matrix.
func coalescedRow(dst []memory.VAddr, base memory.VAddr, i, j0, lanes int) []memory.VAddr {
	for l := 0; l < lanes; l++ {
		dst = append(dst, fwAddr(base, i, j0+l))
	}
	return dst
}
