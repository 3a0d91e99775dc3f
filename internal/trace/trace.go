// Package trace defines the memory-trace representation replayed by the
// GPU model. Workload generators run their algorithm on the host and emit,
// per compute unit, a set of warp instruction streams: SIMT global loads
// and stores carrying up to 32 per-lane virtual addresses, scratchpad
// operations (which bypass the TLB and caches, as in the paper's baseline),
// compute delays, and device-wide barriers separating kernel phases.
//
// The representation is structure-of-arrays: each warp stream is a flat
// []Inst of fixed-size headers, and all per-lane addresses live in one
// shared arena ([]memory.VAddr) that instructions reference by (offset,
// lane count). Replaying a trace therefore touches two dense arrays
// instead of chasing a per-instruction slice header.
//
// Builder is the one place a trace accumulates. A materializing Builder
// stages the lane addresses in blocks that never move, each twice the
// last up to 64K addresses, and copies them once into the exact-size
// arena. A streaming one holds a v4 stream's current chunk, itself a
// Trace whose lanes fill one reused block, and hands each chunk it cuts to
// the ChunkWriter's encoder. A Cursor decodes each chunk back into a
// Trace, and every chunk written or read passes the checks of Validate.
package trace

import (
	"fmt"
	"math"
	"slices"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// Kind discriminates trace instructions.
type Kind uint8

// Instruction kinds.
const (
	Compute      Kind = iota // busy the warp for Cycles
	Load                     // global load: per-lane virtual addresses
	Store                    // global store: per-lane virtual addresses
	ScratchLoad              // scratchpad read: no TLB or cache involvement
	ScratchStore             // scratchpad write
	Barrier                  // device-wide barrier (kernel boundary)
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	case ScratchLoad:
		return "scratch-load"
	case ScratchStore:
		return "scratch-store"
	case Barrier:
		return "barrier"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Inst is one SIMT instruction executed by a warp. Load/Store instructions
// reference their per-lane addresses in the owning Trace's Arena via
// [Off, Off+Lanes); resolve them with Trace.Addrs.
type Inst struct {
	Kind   Kind
	Lanes  uint16 // lane count for Load/Store
	Off    uint32 // arena offset of the first lane address
	Cycles uint64 // duration for Compute / scratch ops
}

// WarpTrace is a warp's instruction stream.
type WarpTrace []Inst

// CUTrace holds the warp streams assigned to one compute unit.
type CUTrace struct {
	Warps []WarpTrace
}

// Trace is a complete workload trace.
type Trace struct {
	Name  string
	ASID  memory.ASID
	CUs   []CUTrace
	Arena []memory.VAddr // per-lane addresses of every Load/Store
}

// Addrs returns in's per-lane addresses as a view into the trace arena.
// The returned slice must not be mutated or retained past mutation of the
// trace.
func (t *Trace) Addrs(in Inst) []memory.VAddr {
	return t.Arena[in.Off : uint64(in.Off)+uint64(in.Lanes)]
}

// Summary describes a trace's memory behaviour.
type Summary struct {
	Name           string
	MemInsts       uint64 // global loads+stores
	LaneAccesses   uint64 // total per-lane addresses
	CoalescedLines uint64 // unique 128B lines summed over instructions
	ScratchOps     uint64
	ComputeInsts   uint64
	Barriers       uint64
	DistinctPages  int     // 4KB footprint
	Divergence     float64 // mean unique lines per memory instruction
	PagesPerInst   float64 // mean unique pages per memory instruction
}

// Summarize computes a Summary for the trace.
func (t *Trace) Summarize() Summary {
	s := summarizer{sum: Summary{Name: t.Name}}
	var pages flatmap.Map[struct{}] // keyed by VPN
	for _, cu := range t.CUs {
		for _, w := range cu.Warps {
			for _, in := range w {
				if in.Kind != Load && in.Kind != Store {
					s.ctl(in.Kind)
					continue
				}
				s.mem(t.Addrs(in))
				for _, p := range s.pages {
					pages.Put(uint64(p), struct{}{})
				}
			}
		}
	}
	return s.summary(pages.Len())
}

// summarizer folds instructions into a Summary one at a time. Summarize
// and the chunk encoder both run one, so a built trace and its stream
// agree on every field. Each caller counts the distinct pages of the whole
// trace its own way from the pages each memory instruction leaves in
// pages.
type summarizer struct {
	sum       Summary
	pageTouch uint64         // distinct pages summed over memory instructions
	lines     []memory.VAddr // scratch: an instruction's coalesced lines
	pages     []memory.VPN   // the last memory instruction's distinct pages, in first-lane order
}

// mem folds in one memory instruction's lane addresses.
func (s *summarizer) mem(addrs []memory.VAddr) {
	s.sum.MemInsts++
	s.sum.LaneAccesses += uint64(len(addrs))
	s.lines = CoalesceLinesInto(s.lines[:0], addrs)
	s.sum.CoalescedLines += uint64(len(s.lines))
	s.pages = s.pages[:0]
	for _, a := range addrs {
		if p := a.Page(); !slices.Contains(s.pages, p) {
			s.pages = append(s.pages, p)
		}
	}
	s.pageTouch += uint64(len(s.pages))
}

// ctl folds in one instruction without lane addresses.
func (s *summarizer) ctl(k Kind) {
	switch k {
	case ScratchLoad, ScratchStore:
		s.sum.ScratchOps++
	case Compute:
		s.sum.ComputeInsts++
	case Barrier:
		s.sum.Barriers++
	}
}

// summary returns the Summary of everything folded in, for a trace
// touching distinctPages 4KB pages.
func (s *summarizer) summary(distinctPages int) Summary {
	out := s.sum
	out.DistinctPages = distinctPages
	if out.MemInsts > 0 {
		out.Divergence = float64(out.CoalescedLines) / float64(out.MemInsts)
		out.PagesPerInst = float64(s.pageTouch) / float64(out.MemInsts)
	}
	return out
}

// Validate checks the trace's structural invariants: every instruction
// has a known kind and at most maxLanes lanes, every Load/Store carries
// at least one, its lane-arena reference lies inside the arena, and its
// lane addresses lie inside the modeled virtual address space (below
// 1<<memory.VABits). A Cursor checks every chunk it decodes this way, so
// a corrupt file can never provoke an out-of-bounds access during replay;
// the chunk encoder checks every chunk it writes, and WriteChunked the
// whole trace first, so a malformed trace is an error rather than a panic
// in Addrs; and a System checks an in-memory trace before running it.
func (t *Trace) Validate() error {
	if err := t.check(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// check is Validate without the package prefix, for the chunk encoder and
// decoder, which name the chunk instead.
func (t *Trace) check() error {
	arena := uint64(len(t.Arena))
	// One OR over the arena tells whether any address lies beyond the
	// modeled address space; only then are the lanes searched for it.
	var bits memory.VAddr
	for _, a := range t.Arena {
		bits |= a
	}
	wide := bits>>memory.VABits != 0
	for c := range t.CUs {
		for w, warp := range t.CUs[c].Warps {
			for i, in := range warp {
				if in.Kind > Barrier {
					return fmt.Errorf("cu %d warp %d inst %d: unknown instruction kind %d", c, w, i, uint8(in.Kind))
				}
				if in.Kind != Load && in.Kind != Store {
					if in.Lanes > maxLanes {
						return fmt.Errorf("cu %d warp %d inst %d: %v with %d lanes (limit %d)",
							c, w, i, in.Kind, in.Lanes, maxLanes)
					}
					continue
				}
				if in.Lanes == 0 || in.Lanes > maxLanes {
					return fmt.Errorf("cu %d warp %d inst %d: %v with %d lanes (want 1 to %d)",
						c, w, i, in.Kind, in.Lanes, maxLanes)
				}
				if uint64(in.Off)+uint64(in.Lanes) > arena {
					return fmt.Errorf("cu %d warp %d inst %d: lane reference [%d, %d) outside arena of %d",
						c, w, i, in.Off, uint64(in.Off)+uint64(in.Lanes), arena)
				}
				if wide {
					if err := checkLanes(t.Addrs(in)); err != nil {
						return fmt.Errorf("cu %d warp %d inst %d: %w", c, w, i, err)
					}
				}
			}
		}
	}
	return nil
}

// checkLanes reports a lane address beyond the modeled virtual address
// space.
func checkLanes(addrs []memory.VAddr) error {
	for l, a := range addrs {
		if a>>memory.VABits != 0 {
			return fmt.Errorf("lane %d address %#x beyond the %d-bit virtual address space", l, uint64(a), memory.VABits)
		}
	}
	return nil
}

// FirstTouchVPNs returns the trace's distinct 4KB pages in the order
// System.Prepare first touches them (cu-major, warp-major, instruction
// order, lane order) — the order that pins physical frame assignment.
// A chunked stream's footer premap list reproduces exactly this.
func (t *Trace) FirstTouchVPNs() []memory.VPN {
	seen := make(map[memory.VPN]bool)
	var order []memory.VPN
	for _, cu := range t.CUs {
		for _, w := range cu.Warps {
			for _, in := range w {
				if in.Kind != Load && in.Kind != Store {
					continue
				}
				for _, a := range t.Addrs(in) {
					if p := a.Page(); !seen[p] {
						seen[p] = true
						order = append(order, p)
					}
				}
			}
		}
	}
	return order
}

// CoalesceLines returns the unique 128B line addresses touched by the
// per-lane addresses, in first-touch order — the work of the paper's
// per-CU coalescer, which merges lane accesses into the minimum number of
// memory requests.
func CoalesceLines(addrs []memory.VAddr) []memory.VAddr {
	return CoalesceLinesInto(make([]memory.VAddr, 0, 4), addrs)
}

// CoalesceLinesInto is CoalesceLines appending into dst (usually a reused
// buffer sliced to [:0]), so a replay loop coalesces without allocating.
func CoalesceLinesInto(dst, addrs []memory.VAddr) []memory.VAddr {
	for _, a := range addrs {
		la := a.Line()
		dup := false
		for _, o := range dst {
			if o == la {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, la)
		}
	}
	return dst
}

// Builder assembles a Trace by distributing warp-sized work chunks across
// a fixed pool of warp contexts (NumCUs x WarpsPerCU), round-robin, the
// way a persistent-threads GPU kernel spreads blocks over compute units.
// It is the one place instructions and lane addresses accumulate.
//
// NewBuilder's Builder holds the whole trace, and Build returns it. It
// stages lane addresses in blocks that never move: the first holds
// firstBlock addresses, each next one twice the last, up to maxBlock. No
// block is regrown, so each address is copied at most twice: into its
// block, and at Build into the arena. Reset empties it for another trace,
// of any shape, and keeps that storage.
//
// NewStreamingBuilder's Builder holds one chunk of a v4 stream: a Trace
// whose lanes fill one block sized for a full chunk. Once the chunk
// reaches the writer's budget the Builder cuts it: the writer's encoder
// folds it into the footer and writes it, and the Builder reuses the
// chunk's slices for the next one, so generator memory stays bounded by
// the budget. Generators are written against the Builder API once and
// work identically either way.
type Builder struct {
	tr       *Trace       // the trace; streaming, the current chunk
	cw       *ChunkWriter // streaming: the writer that encodes each chunk
	numCUs   int
	warpsPer int
	next     int // round-robin cursor over all warp contexts

	full   [][]memory.VAddr // filled staging blocks, in order
	block  []memory.VAddr   // the block being filled
	staged uint64           // lane addresses staged: the next lane's arena offset

	size   int // decoded bytes since the last cut: instBytes per instruction, 8 per lane
	budget int // the size at which a chunk is cut; math.MaxInt when materializing
}

// Staging block sizes, in lane addresses: the blocks staging a trace hold
// less than its arena plus one maxBlock.
const (
	firstBlock = 256
	maxBlock   = 1 << 16
)

// NewBuilder creates a builder for numCUs compute units with warpsPerCU
// concurrent warp contexts each.
func NewBuilder(name string, asid memory.ASID, numCUs, warpsPerCU int) *Builder {
	b := &Builder{tr: &Trace{}, budget: math.MaxInt}
	b.Reset(name, asid, numCUs, warpsPerCU)
	return b
}

// NewStreamingBuilder returns the Builder that accumulates cw's chunks, so
// what a generator emits into it is encoded chunk by chunk instead of
// materialized. Build returns nil; the caller closes cw after generation
// finishes, which cuts and writes the last chunk.
func NewStreamingBuilder(cw *ChunkWriter) *Builder { return cw.b }

// NumWarps returns the total warp-context count.
func (b *Builder) NumWarps() int { return b.numCUs * b.warpsPer }

// Warp returns an emitter for the next warp context in round-robin order.
// Consecutive calls spread work evenly over CUs.
func (b *Builder) Warp() *WarpEmitter {
	cu := b.next % b.numCUs
	warp := (b.next / b.numCUs) % b.warpsPer
	b.next++
	return &WarpEmitter{b: b, cu: cu, warp: warp}
}

// Barrier appends a device-wide barrier to every warp context (a kernel
// boundary): no warp proceeds past it until all have reached it. Every
// warp resynchronizes here, so a streaming Builder also cuts its chunk
// here once it holds a quarter of the budget: chunk boundaries at
// barriers bound how many chunks a replay holds live, and short phases do
// not degenerate into tiny chunks.
func (b *Builder) Barrier() {
	for c := range b.tr.CUs {
		for w := range b.tr.CUs[c].Warps {
			(&WarpEmitter{b: b, cu: c, warp: w}).emit(Inst{Kind: Barrier})
		}
	}
	if b.size >= b.budget/4 {
		b.cut()
	}
	// Restart distribution from warp 0 so the next kernel spreads evenly.
	b.next = 0
}

// Build returns the assembled trace, or nil for a streaming Builder, whose
// chunks went to its writer. It copies the staged lane addresses once into
// an exact-size Trace.Arena; a trace that fit its first block takes that
// block as its arena, uncopied. Build finalizes the builder: nothing is
// emitted after it until Reset, and a second Build returns the same trace.
func (b *Builder) Build() *Trace {
	if b.cw != nil {
		return nil
	}
	return b.assemble()
}

// Reset empties a materializing Builder for the next trace: named name,
// run under asid, over numCUs x warpsPerCU warp contexts. It keeps the
// lane block, which after Build is the last trace's arena, and the
// instruction slices of every warp context it has held, including those
// outside the new shape, for a later Reset back to a larger one. So a
// Builder that builds traces one after another allocates only for a trace
// larger than every one before it: in lanes, in shape, or in the
// instructions of one warp context. The Trace the last Build returned shares that storage (it
// is the Builder's own Trace): it is invalid after Reset. Reset panics on
// a streaming Builder, whose chunks its writer owns, and on a shape
// without warp contexts.
func (b *Builder) Reset(name string, asid memory.ASID, numCUs, warpsPerCU int) {
	if b.cw != nil {
		panic("trace: Reset of a streaming Builder")
	}
	if numCUs <= 0 || warpsPerCU <= 0 {
		panic("trace: builder needs positive CU and warp counts")
	}
	b.tr.Name, b.tr.ASID, b.tr.Arena = name, asid, nil
	b.tr.CUs = reshape(b.tr.CUs, numCUs)
	for c := range b.tr.CUs {
		b.tr.CUs[c].Warps = reshape(b.tr.CUs[c].Warps, warpsPerCU)
	}
	b.numCUs, b.warpsPer = numCUs, warpsPerCU
	clear(b.full)
	b.full = b.full[:0]
	b.empty()
	b.next = 0
}

// reshape returns s resliced to n elements. The elements past n stay in
// its capacity, for a later reshape to reach them again; new elements are
// zero.
func reshape[S ~[]E, E any](s S, n int) S {
	if n > cap(s) {
		s = slices.Grow(s[:cap(s)], n-cap(s))
	}
	return s[:n]
}

// assemble points the trace's arena at the staged lanes, first copying
// them into one exact-size block if they fill several, and returns the
// trace.
func (b *Builder) assemble() *Trace {
	if len(b.full) > 0 {
		arena := make([]memory.VAddr, 0, b.staged)
		for _, blk := range b.full {
			arena = append(arena, blk...)
		}
		b.full, b.block = nil, append(arena, b.block...)
	}
	b.tr.Arena = b.block
	return b.tr
}

// cut hands a streaming Builder's chunk to the writer's encoder and
// empties it for the next one.
func (b *Builder) cut() {
	if b.size == 0 {
		return
	}
	b.cw.encode(b.assemble())
	b.empty()
}

// empty drops every instruction and staged lane, keeping the warps'
// instruction slices and the current block for what is emitted next.
func (b *Builder) empty() {
	for c := range b.tr.CUs {
		warps := b.tr.CUs[c].Warps
		for w := range warps {
			warps[w] = warps[w][:0]
		}
	}
	b.block, b.staged, b.size = b.block[:0], 0, 0
}

// intern stages an access's lane addresses after every lane staged so far
// and returns their (offset, count) reference into the arena.
func (b *Builder) intern(addrs []memory.VAddr) (uint32, uint16) {
	if len(addrs) > math.MaxUint16 {
		panic("trace: access exceeds 65535 lanes")
	}
	b.size += 8 * len(addrs)
	return uint32(b.stage(addrs)), uint16(len(addrs))
}

// stage copies addrs into the staging blocks after every lane staged so
// far and returns the arena offset of the first.
func (b *Builder) stage(addrs []memory.VAddr) uint64 {
	off := b.staged
	if off+uint64(len(addrs)) > 1<<32 {
		panic("trace: arena exceeds 4G lane addresses")
	}
	for rest := addrs; len(rest) > 0; {
		if len(b.block) == cap(b.block) {
			b.nextBlock()
		}
		n := copy(b.block[len(b.block):cap(b.block)], rest)
		b.block = b.block[:len(b.block)+n]
		rest = rest[n:]
	}
	b.staged += uint64(len(addrs))
	return off
}

// nextBlock files the full staging block and starts the next one, twice
// its size up to maxBlock.
func (b *Builder) nextBlock() {
	size := firstBlock
	if b.block != nil {
		b.full = append(b.full, b.block)
		size = min(2*cap(b.block), maxBlock)
	}
	b.block = make([]memory.VAddr, 0, size)
}

// WarpEmitter appends instructions to one warp context.
type WarpEmitter struct {
	b    *Builder
	cu   int
	warp int
}

// emit appends in to the warp's stream and cuts a streaming Builder's
// chunk once it reaches the budget.
func (w *WarpEmitter) emit(in Inst) *WarpEmitter {
	b := w.b
	warp := &b.tr.CUs[w.cu].Warps[w.warp]
	*warp = append(*warp, in)
	if b.size += instBytes; b.size >= b.budget {
		b.cut()
	}
	return w
}

// access appends in, a Load or Store, over the given lane addresses; an
// access without lanes is dropped.
func (w *WarpEmitter) access(in Inst, addrs []memory.VAddr) *WarpEmitter {
	if len(addrs) == 0 {
		return w
	}
	in.Off, in.Lanes = w.b.intern(addrs)
	return w.emit(in)
}

// Load appends a global load touching the given lane addresses. The
// Builder copies them before Load returns and keeps no reference to addrs,
// so a generator may refill the same buffer for its next access.
func (w *WarpEmitter) Load(addrs ...memory.VAddr) *WarpEmitter {
	return w.access(Inst{Kind: Load}, addrs)
}

// Store appends a global store touching the given lane addresses. Like
// Load, it copies them before it returns and keeps no reference to addrs.
func (w *WarpEmitter) Store(addrs ...memory.VAddr) *WarpEmitter {
	return w.access(Inst{Kind: Store}, addrs)
}

// Compute appends cycles of computation.
func (w *WarpEmitter) Compute(cycles uint64) *WarpEmitter {
	if cycles == 0 {
		return w
	}
	return w.emit(Inst{Kind: Compute, Cycles: cycles})
}

// ScratchLoad appends a scratchpad read of the given duration.
func (w *WarpEmitter) ScratchLoad(cycles uint64) *WarpEmitter {
	return w.emit(Inst{Kind: ScratchLoad, Cycles: cycles})
}

// ScratchStore appends a scratchpad write of the given duration.
func (w *WarpEmitter) ScratchStore(cycles uint64) *WarpEmitter {
	return w.emit(Inst{Kind: ScratchStore, Cycles: cycles})
}
