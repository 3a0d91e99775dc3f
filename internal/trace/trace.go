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
// instead of chasing a per-instruction slice header. Building one stages
// the lane addresses in blocks that never move, each twice the last up to
// 64K addresses, and copies them once into the exact-size arena, instead
// of allocating once per memory instruction or regrowing the arena.
package trace

import (
	"fmt"
	"slices"

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
	pages := make(map[memory.VPN]struct{})
	for _, cu := range t.CUs {
		for _, w := range cu.Warps {
			for _, in := range w {
				if in.Kind != Load && in.Kind != Store {
					s.ctl(in.Kind)
					continue
				}
				s.mem(t.Addrs(in))
				for _, p := range s.pages {
					pages[p] = struct{}{}
				}
			}
		}
	}
	return s.summary(len(pages))
}

// summarizer folds instructions into a Summary one at a time. Summarize
// and ChunkWriter both run one, so a built trace and its stream agree on
// every field. Each caller counts the distinct pages of the whole trace
// its own way from the pages each memory instruction leaves in pages.
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

// Validate checks the trace's structural invariants: every Load/Store
// carries 1 to maxLanes lanes, its lane-arena reference lies inside the
// arena, and its lane addresses lie inside the modeled virtual address
// space (below 1<<memory.VABits). Materialize calls it on every decoded
// trace, so a corrupt file can never provoke an out-of-bounds access
// during replay; WriteChunked calls it before encoding, so a malformed
// trace is an error rather than a panic in Addrs; and a System calls it
// before running an in-memory trace.
func (t *Trace) Validate() error {
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
				if in.Kind != Load && in.Kind != Store {
					continue
				}
				if in.Lanes == 0 || in.Lanes > maxLanes {
					return fmt.Errorf("trace: cu %d warp %d inst %d: %v with %d lanes (want 1 to %d)",
						c, w, i, in.Kind, in.Lanes, maxLanes)
				}
				if uint64(in.Off)+uint64(in.Lanes) > arena {
					return fmt.Errorf("trace: cu %d warp %d inst %d: lane reference [%d, %d) outside arena of %d",
						c, w, i, in.Off, uint64(in.Off)+uint64(in.Lanes), arena)
				}
				if wide {
					if err := checkLanes(t.Addrs(in)); err != nil {
						return fmt.Errorf("trace: cu %d warp %d inst %d: %w", c, w, i, err)
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
//
// A Builder has two backends: the default materializing one (instructions
// accumulate in an in-memory Trace, returned by Build) and a streaming one
// (NewStreamingBuilder: instructions flow straight into a ChunkWriter, so
// generator memory stays bounded by the chunk budget). Generators are
// written against the Builder API once and work identically against both.
//
// The materializing backend stages lane addresses in blocks that never
// move: the first holds firstBlock addresses, each next one twice the
// last, up to maxBlock. No block is regrown, so each address is copied at
// most twice: into its block, and at Build into the arena.
type Builder struct {
	tr       *Trace
	cw       *ChunkWriter // non-nil: streaming backend
	numCUs   int
	warpsPer int
	next     int // round-robin cursor over all warp contexts

	full   [][]memory.VAddr // filled staging blocks, in order
	block  []memory.VAddr   // the block being filled
	staged uint64           // lane addresses staged: the next lane's arena offset
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
	if numCUs <= 0 || warpsPerCU <= 0 {
		panic("trace: builder needs positive CU and warp counts")
	}
	t := &Trace{Name: name, ASID: asid, CUs: make([]CUTrace, numCUs)}
	for i := range t.CUs {
		t.CUs[i].Warps = make([]WarpTrace, warpsPerCU)
	}
	return &Builder{tr: t, numCUs: numCUs, warpsPer: warpsPerCU}
}

// NewStreamingBuilder creates a builder that emits directly into cw
// instead of materializing a Trace. Build returns nil; the caller owns
// closing cw after generation finishes.
func NewStreamingBuilder(cw *ChunkWriter) *Builder {
	return &Builder{cw: cw, numCUs: cw.NumCUs(), warpsPer: cw.WarpsPerCU()}
}

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
// boundary): no warp proceeds past it until all have reached it.
func (b *Builder) Barrier() {
	if b.cw != nil {
		b.cw.Barrier()
	} else {
		for c := range b.tr.CUs {
			for w := range b.tr.CUs[c].Warps {
				b.tr.CUs[c].Warps[w] = append(b.tr.CUs[c].Warps[w], Inst{Kind: Barrier})
			}
		}
	}
	// Restart distribution from warp 0 so the next kernel spreads evenly.
	b.next = 0
}

// Build returns the assembled trace (nil for a streaming builder). It
// copies the staged lane addresses once into an exact-size Trace.Arena; a
// trace that fit its first block takes that block as its arena, uncopied.
// Build finalizes the builder: nothing is emitted after it, and a second
// Build returns the same trace.
func (b *Builder) Build() *Trace {
	if b.tr == nil {
		return nil
	}
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

// intern stages addrs after every lane staged so far and returns their
// (offset, count) reference into the arena Build assembles.
func (b *Builder) intern(addrs []memory.VAddr) (uint32, uint16) {
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
	return uint32(off), uint16(len(addrs))
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

func (w *WarpEmitter) emit(in Inst) *WarpEmitter {
	if w.b.cw != nil {
		w.b.cw.Append(w.cu, w.warp, in, nil)
		return w
	}
	cu := &w.b.tr.CUs[w.cu]
	cu.Warps[w.warp] = append(cu.Warps[w.warp], in)
	return w
}

// Load appends a global load touching the given lane addresses.
func (w *WarpEmitter) Load(addrs ...memory.VAddr) *WarpEmitter {
	if len(addrs) == 0 {
		return w
	}
	if w.b.cw != nil {
		w.b.cw.Append(w.cu, w.warp, Inst{Kind: Load}, addrs)
		return w
	}
	off, lanes := w.b.intern(addrs)
	return w.emit(Inst{Kind: Load, Off: off, Lanes: lanes})
}

// Store appends a global store touching the given lane addresses.
func (w *WarpEmitter) Store(addrs ...memory.VAddr) *WarpEmitter {
	if len(addrs) == 0 {
		return w
	}
	if w.b.cw != nil {
		w.b.cw.Append(w.cu, w.warp, Inst{Kind: Store}, addrs)
		return w
	}
	off, lanes := w.b.intern(addrs)
	return w.emit(Inst{Kind: Store, Off: off, Lanes: lanes})
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
