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
// The GPU runs on one engine but reaches its warp-global coordinator only
// by messages (see Fabric), so the CU front ends and the coordinator can
// sit in different partitions of a partitioned simulation.
//
// Warp stepping is allocation-free: each warp implements sim.Handler and
// re-schedules itself with an action argument (step / advance / issue line
// i), and coalesced lines land in a per-warp buffer reused across
// instructions, so replaying an instruction allocates nothing beyond what
// the memory path itself does. Launching is too, once warm: a launch
// recycles the previous kernel's retired warp contexts, with their line
// buffers and completion callbacks, so a GPU that runs kernel after kernel
// (tenant churn) allocates a warp context only when a launch binds more
// warps than it has retired contexts to reuse. A warp a cancelled or
// deadlocked run left unretired is never reused.
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

// Fabric carries the messages between the CU front ends and the
// warp-global coordinator — live-warp count, barrier rendezvous, run
// completion. The CUs reach the coordinator only through ToCoord (CU ->
// coordinator), and barrier releases flow back through ToCU (coordinator
// -> CU), so the coordinator never touches warp state. Both deliver
// h.Handle(arg) after the fabric's latency; neither may allocate per
// message.
type Fabric interface {
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

// GPU executes a trace against a MemoryPath, coordinating its CUs over a
// Fabric.
type GPU struct {
	eng  *sim.Engine
	fab  Fabric
	cfg  Config
	path MemoryPath
	cus  []*cu
	st   Stats

	liveWarps  int
	atBarrier  int
	onComplete func()

	spare []*warp // retired warp contexts, for the next launch to bind
}

type cu struct {
	id    int
	port  *sim.BandwidthServer
	warps []*warp
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
	warpIssue0 = 2
)

type warp struct {
	g       *GPU
	cu      *cu
	stream  trace.WarpTrace
	arena   []memory.VAddr // owning trace's (or current segment's) arena
	src     *trace.Cursor  // non-nil: refill stream/arena segment by segment
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

// New builds a GPU front-end on eng over the given memory path.
func New(cfg Config, eng *sim.Engine, path MemoryPath, fab Fabric) *GPU {
	if cfg.NumCUs <= 0 || cfg.Lanes <= 0 {
		panic("gpu: invalid config")
	}
	g := &GPU{eng: eng, fab: fab, cfg: cfg, path: path}
	for i := 0; i < cfg.NumCUs; i++ {
		g.cus = append(g.cus, &cu{id: i, port: sim.NewBandwidthServer(eng, cfg.IssuePerCycle)})
	}
	return g
}

// Reset returns the GPU to the state New leaves it in: no kernel launched,
// idle CU ports and zeroed counters. Like a launch, it drops every
// warp, recycling the retired ones, so the GPU holds no trace afterwards,
// and a warp a stopped run left unretired is dropped, never reused.
func (g *GPU) Reset() {
	g.dropWarps()
	for _, c := range g.cus {
		c.port.Reset()
	}
	g.st = Stats{}
	g.liveWarps, g.atBarrier = 0, 0
	g.onComplete = nil
}

// Stats returns the front-end counters, summed over CUs.
func (g *GPU) Stats() Stats { return g.st }

// Launch binds the trace's warp streams to CU contexts and schedules them
// to begin at the current cycle. onComplete fires when every warp has
// retired its last instruction. A launch starts only after every earlier
// warp has retired, so it drops the earlier kernels' warps first. Launch
// panics if the trace has more CUs than the GPU.
func (g *GPU) Launch(tr *trace.Trace, onComplete func()) {
	g.launch(len(tr.CUs), onComplete, func(c *cu) {
		for _, ws := range tr.CUs[c.id].Warps {
			if len(ws) > 0 {
				w := g.bind(c)
				w.stream, w.arena = ws, tr.Arena
			}
		}
	})
}

// LaunchStream is Launch for a chunked trace replayed through a cursor, so
// a trace far larger than memory replays in bounded space: warp contexts
// with a non-zero total instruction count (read up front from the
// stream) are bound and scheduled exactly as Launch binds materialized
// streams, but each warp pulls its instructions segment by segment from
// src as it executes. The event schedule is identical to a Launch of the
// materialized equivalent — refills are pure host work inside the same
// warp event, and a refill that blocks on I/O or decode costs host time
// only, invisible to the simulated clock.
func (g *GPU) LaunchStream(src *trace.Cursor, onComplete func()) {
	g.launch(src.NumCUs(), onComplete, func(c *cu) {
		for wi := 0; wi < src.NumWarps(c.id); wi++ {
			if src.WarpLen(c.id, wi) > 0 {
				w := g.bind(c)
				w.src, w.wi = src, wi
			}
		}
	})
}

// launch starts a kernel on the first cus CUs, the one path behind Launch
// and LaunchStream: it drops the earlier kernels' warps, recycling the
// retired ones, lets bindCU bind each CU's new warps in order, and
// schedules every new warp at the current cycle, or the completion at
// once when no warp has an instruction.
func (g *GPU) launch(cus int, onComplete func(), bindCU func(c *cu)) {
	if cus > len(g.cus) {
		panic(fmt.Sprintf("gpu: trace wants %d CUs, GPU has %d", cus, len(g.cus)))
	}
	g.onComplete = onComplete
	g.dropWarps()
	for _, c := range g.cus[:cus] {
		bindCU(c)
	}
	if g.liveWarps == 0 {
		g.eng.Schedule(0, g.complete)
		return
	}
	for _, c := range g.cus {
		for _, w := range c.warps {
			g.eng.ScheduleEvent(0, w, warpStep)
		}
	}
}

// bind adds a warp context for the new kernel to CU c and returns it for
// the caller to point at its stream: a retired context when one is
// spare, else a new one with its completion callback bound.
func (g *GPU) bind(c *cu) *warp {
	var w *warp
	if n := len(g.spare); n > 0 {
		w = g.spare[n-1]
		g.spare = g.spare[:n-1]
	} else {
		w = &warp{}
		w.lineDone = w.onLineDone
	}
	w.g, w.cu = g, c
	c.warps = append(c.warps, w)
	g.liveWarps++
	return w
}

// dropWarps empties every CU's warp list, so a launch steps (and a barrier
// release walks) only the new kernel's warps, and earlier traces become
// unreachable. A retired warp goes to the spare list zeroed but for its
// line buffer's capacity and its completion callback: no event names it
// (it finished after its last line completed and its last issue event
// fired, and a non-blocking store completes through nopDone). A warp a
// cancelled or deadlocked run left unretired may still be named by queued
// events, so it is dropped, never reused.
func (g *GPU) dropWarps() {
	for _, c := range g.cus {
		for _, w := range c.warps {
			if w.done {
				*w = warp{lines: w.lines[:0], lineDone: w.lineDone}
				g.spare = append(g.spare, w)
			}
		}
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
	g.st.Instructions++
	switch in.Kind {
	case trace.Compute:
		g.st.ComputeCycles += in.Cycles
		g.eng.ScheduleEvent(in.Cycles, w, warpNext)
	case trace.ScratchLoad, trace.ScratchStore:
		g.st.ScratchOps++
		lat := in.Cycles
		if lat == 0 {
			lat = g.cfg.ScratchLatency
		}
		g.eng.ScheduleEvent(lat, w, warpNext)
	case trace.Load, trace.Store:
		w.issueMemory(in)
	case trace.Barrier:
		g.st.Barriers++
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
			w.g.eng.ScheduleEvent(1, w, warpNext)
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
	g.st.MemInsts++
	g.st.LaneAccesses += uint64(len(addrs))
	w.lines = trace.CoalesceLinesInto(w.lines[:0], addrs)
	g.st.CoalescedReqs += uint64(len(w.lines))
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
		g.eng.AtEvent(slot, w, warpIssue0+uint64(i))
	}
	if !w.blocking {
		// Non-blocking store: the warp advances once the requests have
		// been handed to the memory system.
		g.eng.AtEvent(lastSlot+1, w, warpNext)
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

// onLineDone retires one outstanding line of a blocking instruction.
func (w *warp) onLineDone() {
	w.pending--
	if w.pending == 0 {
		w.next()
	}
}
