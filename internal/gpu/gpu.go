// Package gpu models the GPU front-end of the paper's SoC: 16 compute
// units of 32 lanes, each holding many concurrent warp contexts to hide
// memory latency. Warps replay trace instruction streams; global loads and
// stores pass through the per-CU coalescer (lane addresses merge into the
// minimum number of 128B line requests) and then enter the memory system
// through a MemoryPath, which the core package implements differently for
// each MMU design (physical baseline, ideal MMU, virtual cache hierarchy).
// Scratchpad accesses complete locally without touching TLBs or caches, as
// in the baseline system.
//
// The GPU always runs on a partitioned simulation (see Fabric): each CU's
// warps and issue port live on that CU's engine, and the warp-global
// coordinator on another, reached only by messages.
//
// Warp stepping is allocation-free: each warp implements sim.Handler and
// re-schedules itself with an action argument (step / advance / issue line
// i), and coalesced lines land in a per-warp buffer reused across
// instructions, so replaying an instruction allocates nothing beyond what
// the memory path itself does.
package gpu

import (
	"fmt"

	"vcache/internal/memory"
	"vcache/internal/sim"
	"vcache/internal/trace"
)

// MemoryPath is the interface between a CU and the memory system. Access
// issues one coalesced line request; done fires when a load's data returns
// (stores are retired by the path as it sees fit, but done must still be
// called so the GPU can track drain state).
type MemoryPath interface {
	Access(cu int, addr memory.VAddr, write bool, done func())
}

// BatchedPath extends MemoryPath with a warp-granular entry point: the
// whole coalesced line set of one memory instruction arrives in a single
// call, letting the path dedup translation work across the warp's lines.
// done must fire exactly once per line, with the same semantics as the
// per-line Access callback. lines is the warp's reused coalescing buffer:
// the path must copy anything it needs beyond the call, because the warp
// may overwrite it as soon as the current cycle's events finish.
type BatchedPath interface {
	MemoryPath
	AccessLines(cu int, lines []memory.VAddr, write bool, done func())
}

// StreamSource feeds warp instruction streams incrementally, so a trace
// far larger than memory can replay in bounded space (trace.Cursor is the
// canonical implementation). NextSegment returns the next contiguous
// piece of (cu, warp)'s stream, or ok=false once the stream is exhausted;
// WarpLen must report the full per-warp instruction count up front so
// launch decisions (which warp contexts are live) match the materialized
// trace exactly. NextSegment is called from simulation event context —
// possibly concurrently from partitioned engines — and may block on I/O
// or decode; that time is host time, invisible to the simulated clock.
type StreamSource interface {
	NumCUs() int
	NumWarps(cu int) int
	WarpLen(cu, warp int) uint64
	NextSegment(cu, warp int) (trace.Segment, bool)
}

// Fabric places the GPU on a partitioned simulation. Each CU front end
// runs on its own engine; the warp-global coordinator — live-warp count,
// barrier rendezvous, run completion — runs on CoordEngine and is reached
// only through ToCoord (CU -> coordinator), with barrier releases flowing
// back through ToCU (coordinator -> CU), so no warp state is ever touched
// across partitions. Both deliver h.Handle(arg) on the destination's
// engine; neither may allocate per message.
type Fabric interface {
	CUEngine(cu int) *sim.Engine
	CoordEngine() *sim.Engine
	ToCoord(cu int, h sim.Handler, arg uint64)
	ToCU(cu int, h sim.Handler, arg uint64)
}

// Config describes the GPU front-end.
type Config struct {
	// NumCUs is the compute unit count (paper: 16).
	NumCUs int
	// Lanes is the SIMD width per CU (paper: 32).
	Lanes int
	// IssuePerCycle bounds coalesced memory requests a CU issues per cycle.
	IssuePerCycle int
	// ScratchLatency is the scratchpad access time in cycles.
	ScratchLatency uint64
	// BlockOnStore makes warps wait for store completion. GPUs retire
	// stores asynchronously, so the default (false) matches the paper.
	BlockOnStore bool
}

// DefaultConfig matches Table 1.
func DefaultConfig() Config {
	return Config{NumCUs: 16, Lanes: 32, IssuePerCycle: 1, ScratchLatency: 4}
}

// Stats counts front-end activity.
type Stats struct {
	Instructions  uint64
	MemInsts      uint64
	LaneAccesses  uint64
	CoalescedReqs uint64
	ScratchOps    uint64
	ComputeCycles uint64
	Barriers      uint64
}

// GPU executes a trace against a MemoryPath, on the partitions its Fabric
// provides.
type GPU struct {
	fab     Fabric
	cfg     Config
	path    MemoryPath
	batched BatchedPath // non-nil once EnableBatchedIssue ran
	cus     []*cu

	liveWarps  int
	atBarrier  int
	onComplete func()
}

type cu struct {
	id    int
	eng   *sim.Engine
	port  *sim.BandwidthServer
	warps []*warp
	st    Stats
}

// Coordinator message arguments (GPU.Handle).
const (
	coordBarrier = 0 // a warp arrived at the barrier
	coordRetire  = 1 // a warp retired its last instruction
)

// Warp event arguments (sim.Handler). Values >= warpIssue0 issue the
// coalesced line at index arg-warpIssue0 of the warp's line buffer.
const (
	warpStep   = 0 // execute the instruction at pc
	warpNext   = 1 // advance pc, then execute
	warpBatch  = 2 // hand the whole coalesced line set to the batched path
	warpIssue0 = 3
)

type warp struct {
	g       *GPU
	cu      *cu
	stream  trace.WarpTrace
	arena   []memory.VAddr // owning trace's (or current segment's) arena
	src     StreamSource   // non-nil: refill stream/arena segment by segment
	wi      int            // warp index within the CU (for src refills)
	pc      int
	pending int
	waiting bool // at a barrier
	done    bool

	write    bool           // current memory instruction is a store
	blocking bool           // warp waits for the current instruction's lines
	lines    []memory.VAddr // reused coalesced-line buffer
	lineDone func()         // completion callback, created once per warp
}

// New builds a GPU front-end over the given memory path, placing each CU
// on its fabric engine.
func New(cfg Config, path MemoryPath, fab Fabric) *GPU {
	if cfg.NumCUs <= 0 || cfg.Lanes <= 0 {
		panic("gpu: invalid config")
	}
	g := &GPU{fab: fab, cfg: cfg, path: path}
	for i := 0; i < cfg.NumCUs; i++ {
		eng := fab.CUEngine(i)
		g.cus = append(g.cus, &cu{id: i, eng: eng, port: sim.NewBandwidthServer(eng, cfg.IssuePerCycle)})
	}
	return g
}

// EnableBatchedIssue switches memory instructions from per-line issue
// events to one warp-level AccessLines call per instruction. The path the
// GPU was built with must implement BatchedPath (it panics otherwise). The
// CU issue port still admits one slot per coalesced line — issue bandwidth
// is modeled identically — but the batch is handed over in a single event
// at the last line's slot. Call before Launch.
func (g *GPU) EnableBatchedIssue() {
	bp, ok := g.path.(BatchedPath)
	if !ok {
		panic("gpu: memory path does not implement BatchedPath")
	}
	g.batched = bp
}

// Stats returns the counters summed over CUs (each CU counts its own
// warps' activity, so partitioned runs never contend on shared counters).
func (g *GPU) Stats() Stats {
	var t Stats
	for _, c := range g.cus {
		t.Instructions += c.st.Instructions
		t.MemInsts += c.st.MemInsts
		t.LaneAccesses += c.st.LaneAccesses
		t.CoalescedReqs += c.st.CoalescedReqs
		t.ScratchOps += c.st.ScratchOps
		t.ComputeCycles += c.st.ComputeCycles
		t.Barriers += c.st.Barriers
	}
	return t
}

// Launch binds the trace's warp streams to CU contexts and schedules them
// to begin at the current cycle. onComplete fires when every warp has
// retired its last instruction. A launch starts only after every earlier
// warp has retired, so it drops the earlier kernels' warps first. Launch
// panics if the trace has more CUs than the GPU.
func (g *GPU) Launch(tr *trace.Trace, onComplete func()) {
	if len(tr.CUs) > len(g.cus) {
		panic(fmt.Sprintf("gpu: trace wants %d CUs, GPU has %d", len(tr.CUs), len(g.cus)))
	}
	g.onComplete = onComplete
	g.dropRetiredWarps()
	for ci := range tr.CUs {
		c := g.cus[ci]
		for _, ws := range tr.CUs[ci].Warps {
			if len(ws) == 0 {
				continue
			}
			w := &warp{g: g, cu: c, stream: ws, arena: tr.Arena}
			w.lineDone = w.onLineDone
			c.warps = append(c.warps, w)
			g.liveWarps++
		}
	}
	if g.liveWarps == 0 {
		g.fab.CoordEngine().Schedule(0, g.complete)
		return
	}
	for _, c := range g.cus {
		for _, w := range c.warps {
			c.eng.ScheduleEvent(0, w, warpStep)
		}
	}
}

// LaunchStream is Launch for an incrementally-fed trace: warp contexts
// with a non-zero total instruction count are bound and scheduled exactly
// as Launch binds materialized streams, but each warp pulls its
// instructions segment by segment from src as it executes. The event
// schedule is identical to a Launch of the materialized equivalent —
// refills are pure host work inside the same warp event.
func (g *GPU) LaunchStream(src StreamSource, onComplete func()) {
	if src.NumCUs() > len(g.cus) {
		panic(fmt.Sprintf("gpu: trace wants %d CUs, GPU has %d", src.NumCUs(), len(g.cus)))
	}
	g.onComplete = onComplete
	g.dropRetiredWarps()
	for ci := 0; ci < src.NumCUs(); ci++ {
		c := g.cus[ci]
		for wi := 0; wi < src.NumWarps(ci); wi++ {
			if src.WarpLen(ci, wi) == 0 {
				continue
			}
			w := &warp{g: g, cu: c, src: src, wi: wi}
			w.lineDone = w.onLineDone
			c.warps = append(c.warps, w)
			g.liveWarps++
		}
	}
	if g.liveWarps == 0 {
		g.fab.CoordEngine().Schedule(0, g.complete)
		return
	}
	for _, c := range g.cus {
		for _, w := range c.warps {
			c.eng.ScheduleEvent(0, w, warpStep)
		}
	}
}

// dropRetiredWarps empties every CU's warp list, so a launch steps (and a
// barrier release walks) only the new kernel's warps, and earlier traces
// become unreachable.
func (g *GPU) dropRetiredWarps() {
	for _, c := range g.cus {
		clear(c.warps)
		c.warps = c.warps[:0]
	}
}

// LiveWarps returns the number of unfinished warps.
func (g *GPU) LiveWarps() int { return g.liveWarps }

func (g *GPU) complete() {
	if g.onComplete != nil {
		fn := g.onComplete
		g.onComplete = nil
		fn()
	}
}

// Handle dispatches a scheduled warp event (sim.Handler).
func (w *warp) Handle(arg uint64) {
	switch arg {
	case warpStep:
		w.step()
	case warpNext:
		w.next()
	case warpBatch:
		w.issueBatch()
	default:
		w.issueLine(int(arg - warpIssue0))
	}
}

// step executes the warp's next instruction, refilling the stream from
// the segment source when streaming. The refill loop tolerates empty
// segments; an exhausted (or failed — the source reports both as ok=false)
// stream finishes the warp exactly where a materialized stream would end.
func (w *warp) step() {
	for w.pc >= len(w.stream) {
		if w.src == nil || !w.refill() {
			w.finish()
			return
		}
	}
	in := w.stream[w.pc]
	g, c := w.g, w.cu
	c.st.Instructions++
	switch in.Kind {
	case trace.Compute:
		c.st.ComputeCycles += in.Cycles
		c.eng.ScheduleEvent(in.Cycles, w, warpNext)
	case trace.ScratchLoad, trace.ScratchStore:
		c.st.ScratchOps++
		lat := in.Cycles
		if lat == 0 {
			lat = g.cfg.ScratchLatency
		}
		c.eng.ScheduleEvent(lat, w, warpNext)
	case trace.Load, trace.Store:
		w.issueMemory(in)
	case trace.Barrier:
		c.st.Barriers++
		w.waiting = true
		g.fab.ToCoord(c.id, g, coordBarrier)
	default:
		panic(fmt.Sprintf("gpu: unknown instruction kind %v", in.Kind))
	}
}

// Handle runs a coordinator message (sim.Handler).
func (g *GPU) Handle(arg uint64) {
	if arg == coordRetire {
		g.finishOne()
		return
	}
	g.atBarrier++
	g.checkBarrier()
}

func (w *warp) next() {
	w.pc++
	w.step()
}

// refill swaps in the warp's next stream segment. Pure host work: no
// events are scheduled, so streamed and materialized replays produce the
// same event sequence.
func (w *warp) refill() bool {
	seg, ok := w.src.NextSegment(w.cu.id, w.wi)
	if !ok {
		return false
	}
	w.stream = seg.Insts
	w.arena = seg.Arena
	w.pc = 0
	return true
}

func (w *warp) finish() {
	if w.done {
		return
	}
	w.done = true
	w.g.fab.ToCoord(w.cu.id, w.g, coordRetire)
}

// finishOne runs at the coordinator: a warp retired its last instruction.
func (g *GPU) finishOne() {
	g.liveWarps--
	if g.liveWarps == 0 {
		g.complete()
		return
	}
	// A finishing warp may unblock a barrier the rest are waiting at.
	g.checkBarrier()
}

// checkBarrier releases all waiting warps once every live warp waits. The
// coordinator only counts arrivals; the per-warp waiting flags are CU
// state, so the release is broadcast and each CU wakes its own warps.
func (g *GPU) checkBarrier() {
	if g.atBarrier == 0 || g.atBarrier < g.liveWarps {
		return
	}
	g.atBarrier = 0
	for _, c := range g.cus {
		g.fab.ToCU(c.id, c, 0)
	}
}

// Handle runs the coordinator's barrier release on the CU (sim.Handler):
// wake the CU's barrier-waiting warps.
func (c *cu) Handle(uint64) {
	for _, w := range c.warps {
		if w.waiting {
			w.waiting = false
			c.eng.ScheduleEvent(1, w, warpNext)
		}
	}
}

// issueMemory coalesces the instruction's lane addresses into the warp's
// line buffer and schedules one issue event per line through the CU port.
// The buffer and instruction state (write/blocking) stay valid until every
// issue event has fired, which is guaranteed before the warp advances: a
// blocking warp waits for all completions, and a non-blocking store
// advances at lastSlot+1, strictly after the last issue slot.
func (w *warp) issueMemory(in trace.Inst) {
	g, c := w.g, w.cu
	addrs := w.arena[in.Off : uint64(in.Off)+uint64(in.Lanes)]
	w.write = in.Kind == trace.Store
	c.st.MemInsts++
	c.st.LaneAccesses += uint64(len(addrs))
	w.lines = trace.CoalesceLinesInto(w.lines[:0], addrs)
	c.st.CoalescedReqs += uint64(len(w.lines))
	w.blocking = !w.write || g.cfg.BlockOnStore
	if w.blocking {
		w.pending = len(w.lines)
	}
	var lastSlot uint64
	for i := range w.lines {
		slot := c.port.Admit()
		if slot > lastSlot {
			lastSlot = slot
		}
		if g.batched == nil {
			c.eng.AtEvent(slot, w, warpIssue0+uint64(i))
		}
	}
	if g.batched != nil {
		// Batched issue: the port slots above charge the same issue
		// bandwidth, and the whole line set crosses into the memory path
		// in one event once the last line could have issued.
		c.eng.AtEvent(lastSlot, w, warpBatch)
	}
	if !w.blocking {
		// Non-blocking store: the warp advances once the requests have
		// been handed to the memory system.
		c.eng.AtEvent(lastSlot+1, w, warpNext)
	}
}

// nopDone absorbs completion callbacks of non-blocking stores. They may
// arrive long after the warp has advanced to a later (possibly blocking)
// instruction, so they must never touch the warp's pending count.
func nopDone() {}

// issueLine hands line i of the current memory instruction to the path.
// w.lines/w.write/w.blocking are stable here: every issue event fires
// before the warp can advance to its next instruction.
func (w *warp) issueLine(i int) {
	done := w.lineDone
	if !w.blocking {
		done = nopDone
	}
	w.g.path.Access(w.cu.id, w.lines[i], w.write, done)
}

// issueBatch hands the current instruction's whole line set to the
// batched path. Same stability argument as issueLine: the batch event
// fires at the last issue slot, before the warp can advance, so
// w.lines/w.write/w.blocking are still the current instruction's.
func (w *warp) issueBatch() {
	done := w.lineDone
	if !w.blocking {
		done = nopDone
	}
	w.g.batched.AccessLines(w.cu.id, w.lines, w.write, done)
}

// onLineDone retires one outstanding line of a blocking instruction.
func (w *warp) onLineDone() {
	w.pending--
	if w.pending == 0 {
		w.next()
	}
}
