// Package workloads generates memory traces for the fifteen benchmarks the
// paper evaluates: the Pannotia suite of irregular graph applications (bc,
// color_max, color_maxmin, fw, fw_block, mis, pagerank, pagerank_spmv) and
// seven Rodinia workloads (kmeans, backprop, bfs, hotspot, lud, nw,
// pathfinder). Each generator runs the real algorithm over deterministic
// synthetic inputs (power-law graphs, matrices, grids) and emits the SIMT
// address stream a GPU executing it would produce — including the
// properties the paper's observations rest on: scatter/gather memory
// divergence in the graph codes, scratchpad-heavy phases with bursty
// global traffic in nw/pathfinder, and regular streaming in kmeans,
// backprop and hotspot.
package workloads

import (
	"fmt"
	"io"
	"sort"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

// GeneratorVersion identifies the behavioural version of the trace
// generators. Bump it whenever a generator change makes any workload emit a
// different trace for identical Params — it is part of every cached trace's
// key (internal/artifact), so stale traces stop matching instead of being
// replayed silently.
const GeneratorVersion = 1

// Params controls trace generation. The json tags are the api/v1 wire
// schema: a JobSpec carries Params verbatim, and the api/v1 round-trip
// guard proves every field survives marshal/unmarshal, so fields added
// here join the wire automatically.
type Params struct {
	// Scale multiplies the input sizes (1 = the default laptop-scale
	// inputs; the paper's inputs are larger). The figures' shapes depend
	// on it: a 16K-entry IOMMU TLB removes 29% of Baseline-512's Figure 4
	// overhead at scale 1 and 83% at scale 4.
	Scale int `json:"scale,omitempty"`
	// NumCUs and WarpsPerCU shape the warp-context pool.
	NumCUs     int `json:"num_cus,omitempty"`
	WarpsPerCU int `json:"warps_per_cu,omitempty"`
	// Seed drives all synthetic-input randomness.
	Seed uint64 `json:"seed,omitempty"`
}

// DefaultParams matches the Table 1 GPU (16 CUs) with 8 warp contexts per
// CU and unit scale.
func DefaultParams() Params {
	return Params{Scale: 1, NumCUs: 16, WarpsPerCU: 8, Seed: 42}
}

// Normalized returns p with zero or negative fields replaced by their
// defaults — the parameters generation actually runs with. Cache keys must
// be derived from the normalized form so that Params{} and DefaultParams()
// address the same trace.
func (p Params) Normalized() Params { return p.normalized() }

func (p Params) normalized() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.NumCUs <= 0 {
		p.NumCUs = 16
	}
	if p.WarpsPerCU <= 0 {
		p.WarpsPerCU = 8
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// Generator names one workload and emits its trace. The emit body is
// written once against the trace.Builder API and drives both backends:
// Build materializes the whole trace in memory, BuildChunked streams it
// into a v4 chunk writer so generation memory stays bounded by the chunk
// budget no matter the scale.
type Generator struct {
	Name  string
	Suite string // "pannotia" or "rodinia"
	// HighBandwidth marks the paper's high-translation-bandwidth subset
	// (used by Figures 5, 9 and 10).
	HighBandwidth bool
	emit          func(Params, *trace.Builder)
}

// Build materializes the workload's trace for the given parameters: it is
// BuildInto on a fresh Builder.
func (g Generator) Build(p Params) *trace.Trace {
	p = p.normalized()
	return g.BuildInto(trace.NewBuilder(g.Name, 1, p.NumCUs, p.WarpsPerCU), p)
}

// BuildInto materializes the workload's trace into b, a materializing
// Builder of any shape: it resets b to the trace's name and warp-context
// pool, emits into it and returns b's Build. A caller that builds trace
// after trace into one Builder, as each vcsimd worker does, allocates only
// for a trace larger than every one before it; each trace is invalid once
// the next is built.
func (g Generator) BuildInto(b *trace.Builder, p Params) *trace.Trace {
	p = p.normalized()
	b.Reset(g.Name, 1, p.NumCUs, p.WarpsPerCU)
	g.emit(p, b)
	return b.Build()
}

// BuildChunked streams the workload's trace into w as a v4 chunked
// stream, emitting chunks as the generator produces instructions — the
// whole trace is never resident. Returns the trace summary (identical to
// Build(p).Summarize()). Chunk cuts are observable via opts.OnChunk for
// progress reporting.
func (g Generator) BuildChunked(p Params, w io.Writer, opts trace.ChunkOptions) (trace.Summary, error) {
	p = p.normalized()
	cw := trace.NewChunkWriter(w, g.Name, 1, p.NumCUs, p.WarpsPerCU, opts)
	g.emit(p, trace.NewStreamingBuilder(cw))
	if err := cw.Close(); err != nil {
		return trace.Summary{}, err
	}
	return cw.Summary(), nil
}

// All returns the full catalog in the paper's figure order (Pannotia
// first, then Rodinia).
func All() []Generator {
	return []Generator{
		{Name: "bc", Suite: "pannotia", HighBandwidth: true, emit: emitBC},
		{Name: "color_maxmin", Suite: "pannotia", HighBandwidth: true, emit: emitColorMaxMin},
		{Name: "color_max", Suite: "pannotia", HighBandwidth: true, emit: emitColorMax},
		{Name: "fw", Suite: "pannotia", HighBandwidth: true, emit: emitFW},
		{Name: "fw_block", Suite: "pannotia", HighBandwidth: true, emit: emitFWBlock},
		{Name: "mis", Suite: "pannotia", HighBandwidth: true, emit: emitMIS},
		{Name: "pagerank", Suite: "pannotia", HighBandwidth: true, emit: emitPageRank},
		{Name: "pagerank_spmv", Suite: "pannotia", HighBandwidth: true, emit: emitPageRankSpmv},
		{Name: "kmeans", Suite: "rodinia", HighBandwidth: false, emit: emitKMeans},
		{Name: "backprop", Suite: "rodinia", HighBandwidth: false, emit: emitBackprop},
		{Name: "bfs", Suite: "rodinia", HighBandwidth: true, emit: emitBFS},
		{Name: "hotspot", Suite: "rodinia", HighBandwidth: false, emit: emitHotspot},
		{Name: "lud", Suite: "rodinia", HighBandwidth: true, emit: emitLUD},
		{Name: "nw", Suite: "rodinia", HighBandwidth: false, emit: emitNW},
		{Name: "pathfinder", Suite: "rodinia", HighBandwidth: false, emit: emitPathfinder},
	}
}

// ByName returns the named generator.
func ByName(name string) (Generator, bool) {
	for _, g := range All() {
		if g.Name == name {
			return g, true
		}
	}
	return Generator{}, false
}

// HighBandwidth returns the high-translation-bandwidth subset.
func HighBandwidth() []Generator {
	var out []Generator
	for _, g := range All() {
		if g.HighBandwidth {
			out = append(out, g)
		}
	}
	return out
}

// Names returns the catalog's workload names in order.
func Names() []string {
	var out []string
	for _, g := range All() {
		out = append(out, g.Name)
	}
	return out
}

// ---------------------------------------------------------------------------
// Deterministic RNG (xorshift*), independent of math/rand so traces are
// stable across Go versions.

type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) u64() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545F4914F6CDD1D
}

// n returns a value in [0, limit).
func (r *rng) n(limit int) int {
	if limit <= 0 {
		return 0
	}
	return int(r.u64() % uint64(limit))
}

// f returns a float in [0, 1).
func (r *rng) f() float64 { return float64(r.u64()>>11) / float64(1<<53) }

// ---------------------------------------------------------------------------
// Virtual address layout: arrays placed at page-aligned bases with a guard
// page between them, the way a GPU allocator would lay out device buffers.

type layout struct{ next memory.VAddr }

func newLayout() *layout { return &layout{next: 256 << 20} }

// array reserves elems * elemBytes at a page-aligned base.
func (l *layout) array(elems, elemBytes int) memory.VAddr {
	base := l.next
	size := memory.VAddr(elems * elemBytes)
	pages := (size + memory.PageSize - 1) / memory.PageSize
	l.next += (pages + 1) * memory.PageSize // +1 guard page
	return base
}

// elem4 returns the address of 4-byte element i of base.
func elem4(base memory.VAddr, i int32) memory.VAddr {
	return base + memory.VAddr(uint32(i))*4
}

// nodeStride is the per-node record size for graph state arrays (distance,
// rank, colour, ...). Real graph frameworks keep multi-field per-vertex
// records, so gathers stride by the record size: a 24K-node graph's state
// array spans ~768 pages, far beyond the reach of a 32-entry per-CU TLB
// (128KB) and of the 512-entry shared TLB (2MB), while the hot part stays
// L2-resident — the regime the paper's observations live in.
const nodeStride = 128

// nodeAddr returns the address of node u's record in a node-state array.
func nodeAddr(base memory.VAddr, u int32) memory.VAddr {
	return base + memory.VAddr(uint32(u))*nodeStride
}

// nodeArray reserves a node-state array for n nodes.
func (l *layout) nodeArray(n int) memory.VAddr { return l.array(n, nodeStride) }

// ---------------------------------------------------------------------------
// Synthetic CSR graph with a heavy-tailed degree distribution (matching the
// irregular gather patterns of Pannotia inputs).

type graph struct {
	n      int32
	rowPtr []int32 // len n+1
	col    []int32 // len rowPtr[n]
}

// genGraph builds an n-node graph with the given average degree. Roughly
// 10% of nodes are hubs with degree up to maxDeg, and a third of all edges
// point into a small hub set — the heavy-tailed in-degree of power-law
// graphs. The hub skew is what gives graph workloads temporal locality in
// small caches despite their huge page footprints (TLB miss + cache hit,
// the paper's filtering opportunity).
func genGraph(r *rng, n, avgDeg, maxDeg int) *graph {
	g := &graph{n: int32(n), rowPtr: make([]int32, n+1)}
	degs := make([]int32, n)
	for i := range degs {
		var d int
		if r.f() < 0.1 {
			d = avgDeg + r.n(maxDeg-avgDeg)
		} else {
			d = 1 + r.n(avgDeg)
		}
		if d > maxDeg {
			d = maxDeg
		}
		degs[i] = int32(d)
	}
	var total int32
	for i, d := range degs {
		g.rowPtr[i] = total
		total += d
	}
	g.rowPtr[n] = total
	g.col = make([]int32, total)
	// Heavy-tailed in-degree in three tiers, all page-scattered:
	//   hot  (~45% of edges -> n/64 hubs):   a few hundred lines, L1-hot;
	//   warm (~43% of edges -> n/4 nodes):   hundreds of KB, L2-resident;
	//   cold (~12% of edges -> any node):    the full multi-MB array.
	// Pages covered stay ~uniform (hubs and warm nodes are strided across
	// the whole array), so TLBs thrash while caches mostly hit — the
	// TLB-miss/cache-hit regime the paper's filter exploits.
	// Hub and warm node identities are hash-scattered over the id space:
	// regular strides would alias into a handful of cache sets under
	// virtual indexing, which no real graph exhibits.
	pick := func(count int) int32 {
		return int32((uint64(r.n(count))*2654435761 + 12345) % uint64(n))
	}
	hubs := n / 64
	if hubs < 1 {
		hubs = 1
	}
	warm := n / 4
	if warm < 1 {
		warm = 1
	}
	for i := 0; i < n; i++ {
		for e := g.rowPtr[i]; e < g.rowPtr[i+1]; e++ {
			switch f := r.f(); {
			case f < 0.45:
				g.col[e] = pick(hubs)
			case f < 0.88:
				g.col[e] = pick(warm)
			default:
				g.col[e] = int32(r.n(n))
			}
		}
	}
	return g
}

func (g *graph) deg(v int32) int32 { return g.rowPtr[v+1] - g.rowPtr[v] }

// nodes returns every node id in order: the work list of a sweep over the
// whole graph, cut into warps with warpChunk.
func (g *graph) nodes() []int32 {
	ids := make([]int32, g.n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// warpLanes is a warp's width. Generators fill an access's lane addresses
// into [warpLanes] arrays on the stack, sliced to [:0] and refilled for
// every access: the Builder copies the lanes before Load or Store returns,
// so the buffer is free again at once. An access wider than a warp still
// works; its append spills to the heap.
const warpLanes = 32

// warpChunk returns the warp-sized chunk of nodes starting at index start.
func warpChunk(nodes []int32, start int) []int32 {
	return nodes[start:min(start+warpLanes, len(nodes))]
}

// gatherPhase emits the canonical SIMT neighbor-iteration for one warp
// chunk: per-lane row-pointer loads, then a lockstep loop over neighbor
// slots where active lanes load the CSR column entry, stream per-edge
// arrays (indexed by edge id, e.g. SpMV values), and gather from per-node
// arrays indexed by the neighbor id (the divergent accesses the paper's
// graph workloads are dominated by). Every access's lanes are built in one
// stack buffer.
func gatherPhase(w *trace.WarpEmitter, g *graph, chunk []int32, rowBase, colBase memory.VAddr, streams, gathers []memory.VAddr) {
	var laneBuf [warpLanes]memory.VAddr
	var edgeBuf, idxBuf [warpLanes]int32
	lanes := laneBuf[:0]
	for _, v := range chunk {
		lanes = append(lanes, elem4(rowBase, v))
	}
	w.Load(lanes...) // rowPtr[v] and rowPtr[v+1] coalesce to adjacent lines
	maxDeg := int32(0)
	for _, v := range chunk {
		if d := g.deg(v); d > maxDeg {
			maxDeg = d
		}
	}
	for k := int32(0); k < maxDeg; k++ {
		lanes = laneBuf[:0]
		edges, gatherIdx := edgeBuf[:0], idxBuf[:0]
		for _, v := range chunk {
			if k < g.deg(v) {
				e := g.rowPtr[v] + k
				lanes = append(lanes, elem4(colBase, e))
				edges = append(edges, e)
				gatherIdx = append(gatherIdx, g.col[e])
			}
		}
		if len(lanes) == 0 {
			break
		}
		w.Load(lanes...)
		for _, base := range streams {
			lanes = lanes[:0]
			for _, e := range edges {
				lanes = append(lanes, elem4(base, e))
			}
			w.Load(lanes...)
		}
		for _, base := range gathers {
			lanes = lanes[:0]
			for _, u := range gatherIdx {
				lanes = append(lanes, nodeAddr(base, u))
			}
			w.Load(lanes...)
		}
	}
}

// coalescedAddrs appends to dst the per-lane addresses of elements
// first..first+lanes-1.
func coalescedAddrs(dst []memory.VAddr, base memory.VAddr, first int32, lanes int) []memory.VAddr {
	for l := 0; l < lanes; l++ {
		dst = append(dst, elem4(base, first+int32(l)))
	}
	return dst
}

// storeChunk emits a coalesced per-node store for the chunk into a packed
// (4-byte element) output array. Graph frameworks double-buffer their
// per-iteration results into dense output vectors, so result stores stream
// compactly instead of dragging the strided gather arrays through the L2.
func storeChunk(w *trace.WarpEmitter, base memory.VAddr, chunk []int32) {
	var laneBuf [warpLanes]memory.VAddr
	lanes := laneBuf[:0]
	for _, v := range chunk {
		lanes = append(lanes, elem4(base, v))
	}
	w.Store(lanes...)
}

// sortedCopy returns a sorted copy (used by generators needing stable
// frontier ordering).
func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DescribeSummary returns cmd/tracegen's one-line description of a
// generated trace from its summary, which a chunked generation yields
// without ever materializing the trace.
func DescribeSummary(g Generator, s trace.Summary) string {
	return fmt.Sprintf("%-14s %-8s memInsts=%-7d lanes=%-8d lines=%-8d div=%.2f pages=%-6d scratch=%-6d barriers=%d",
		g.Name, g.Suite, s.MemInsts, s.LaneAccesses, s.CoalescedLines, s.Divergence, s.DistinctPages, s.ScratchOps, s.Barriers)
}
