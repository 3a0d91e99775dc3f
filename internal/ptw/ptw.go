// Package ptw models the IOMMU's multi-threaded page table walker: a pool
// of concurrent walk threads (16 in the paper) backed by a small physical
// page-walk cache (8KB) that captures the locality of upper-level page
// directory accesses. Walks that find all walkers busy queue FIFO; the
// paper relies on this pool to hide shared-TLB miss latency, which is why
// IOMMU TLB *capacity* matters so little compared to its bandwidth.
package ptw

import (
	"fmt"

	"vcache/internal/cache"
	"vcache/internal/dram"
	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/sim"
)

// Config describes the walker pool.
type Config struct {
	// Threads is the number of concurrent walks (16 in the paper).
	Threads int
	// PWCSizeBytes is the page-walk cache capacity (8KB in the paper).
	PWCSizeBytes int
	// PWCHitLatency is the cycles to read a PT entry from the PWC.
	PWCHitLatency uint64
	// CachedLevels is how many upper levels the PWC may cache (leaf PTE
	// reads always go to memory). 3 covers PML4/PDPT/PD.
	CachedLevels int
}

// DefaultConfig matches the paper's IOMMU. All four levels are cacheable:
// a 64B PWC line holds eight adjacent leaf PTEs, and the paper (following
// Power et al. [37]) found the page-walk cache essential to hiding shared
// TLB miss latency — without leaf caching, every walk pays a full DRAM
// access and IOMMU TLB capacity starts to matter, which contradicts the
// paper's Figure 4.
func DefaultConfig() Config {
	return Config{Threads: 16, PWCSizeBytes: 8 * 1024, PWCHitLatency: 2, CachedLevels: memory.Levels}
}

// Stats counts walker activity.
type Stats struct {
	Walks       uint64
	Faults      uint64 // walks that found no valid PTE
	PWCHits     uint64
	PWCMisses   uint64
	QueuedWalks uint64 // walks that waited for a free thread
	QueueDelay  uint64 // total cycles spent waiting for a thread
	WalkCycles  uint64 // total cycles spent walking (excl. queue)
}

// Result is a completed walk.
type Result struct {
	PTE   memory.PTE
	Fault bool // no valid translation
}

// Client receives a completed walk (Walk). A client is usually the
// requester's own pooled record, so a walk allocates nothing.
type Client interface {
	Walked(r Result)
}

// Walker is the multi-threaded page table walker.
type Walker struct {
	eng   *sim.Engine
	cfg   Config
	pt    *memory.PageTable
	mem   *dram.DRAM
	pwc   *cache.Cache
	busy  int
	queue []pending    // walks waiting for a thread, FIFO from qhead
	qhead int          // index of the oldest waiting walk
	free  []*walkState // recycled walk threads; steady state allocates nothing
	stats Stats

	// Trace, if set, receives cycle-stamped "walk.start" and "walk.finish"
	// events with the walked VPN as the argument. Nil means tracing is off.
	Trace *obs.Emitter
}

type pending struct {
	vpn      memory.VPN
	enqueued uint64
	c        Client
}

// Walk-thread event arguments (walkState.Handle).
const (
	walkPWCHit  = 0 // a PWC hit's latency elapsed
	walkMemRead = 1 // a DRAM read of a page-table entry returned
)

// walkState is one in-flight walk thread. It implements sim.Handler — PWC
// hits and DRAM reads both re-schedule it directly, the argument telling
// which — so advancing a walk level allocates nothing; states recycle
// through Walker.free across walks.
type walkState struct {
	w         *Walker
	vpn       memory.VPN
	pte       memory.PTE
	tr        memory.WalkTrace
	levels    int
	level     int
	began     uint64
	fill      uint64 // PWC fill address of the in-flight memory read
	cacheable bool
	c         Client
}

// New builds a walker over the given page table, using mem for PT entry
// fetches that miss the page-walk cache.
func New(eng *sim.Engine, cfg Config, pt *memory.PageTable, mem *dram.DRAM) *Walker {
	if cfg.Threads <= 0 {
		panic("ptw: need at least one walker thread")
	}
	w := &Walker{eng: eng, cfg: cfg, pt: pt, mem: mem}
	w.pwc = cache.New(cache.Config{
		SizeBytes: cfg.PWCSizeBytes,
		LineBytes: 64,
		Assoc:     8,
		Policy:    cache.WriteBack,
	})
	return w
}

// Stats returns a copy of the counters.
func (w *Walker) Stats() Stats { return w.stats }

// Reset returns the walker to the state New leaves it in, walking pt: no
// walk in flight or queued, an empty page-walk cache and zeroed counters.
// It keeps the wait queue's storage and the recycled walk threads; a walk
// that a stopped run left in flight is dropped with the engine's events.
func (w *Walker) Reset(pt *memory.PageTable) {
	w.pt = pt
	w.busy = 0
	clear(w.queue)
	w.queue, w.qhead = w.queue[:0], 0
	w.pwc.Reset()
	w.stats = Stats{}
}

// SetTable rebinds the walker to another page table (context switch). The
// page-walk cache is physically tagged, so it needs no flush.
func (w *Walker) SetTable(pt *memory.PageTable) { w.pt = pt }

// Busy returns the number of active walk threads.
func (w *Walker) Busy() int { return w.busy }

// QueueLen returns the number of walks waiting for a thread.
func (w *Walker) QueueLen() int { return len(w.queue) - w.qhead }

// Walk requests a translation for vpn; c.Walked fires when the walk
// completes.
func (w *Walker) Walk(vpn memory.VPN, c Client) {
	w.stats.Walks++
	if w.busy >= w.cfg.Threads {
		w.stats.QueuedWalks++
		w.enqueue(pending{vpn: vpn, enqueued: w.eng.Now(), c: c})
		return
	}
	w.start(vpn, c)
}

// enqueue appends a walk to the wait queue, moving the waiting walks to
// the front of the buffer before it would grow, so a queue that keeps
// cycling through the same depth allocates nothing.
func (w *Walker) enqueue(p pending) {
	if len(w.queue) == cap(w.queue) && w.qhead > 0 {
		n := copy(w.queue, w.queue[w.qhead:])
		clear(w.queue[n:])
		w.queue, w.qhead = w.queue[:n], 0
	}
	w.queue = append(w.queue, p)
}

// dequeue pops the oldest waiting walk.
func (w *Walker) dequeue() pending {
	p := w.queue[w.qhead]
	w.queue[w.qhead] = pending{} // release the client
	w.qhead++
	if w.qhead == len(w.queue) {
		w.queue, w.qhead = w.queue[:0], 0
	}
	return p
}

func (w *Walker) start(vpn memory.VPN, c Client) {
	w.busy++
	var ws *walkState
	if n := len(w.free); n > 0 {
		ws = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		ws = &walkState{w: w}
	}
	w.Trace.Emit("walk.start", uint64(vpn))
	ws.began = w.eng.Now()
	ws.vpn = vpn
	ws.pte, ws.tr, ws.levels = w.pt.Walk(vpn)
	ws.level = 0
	ws.c = c
	ws.step()
}

// Handle advances the walk after a PWC hit's latency or a DRAM read of a
// page-table entry (sim.Handler).
func (ws *walkState) Handle(arg uint64) {
	if arg == walkMemRead && ws.cacheable {
		ws.w.pwc.Fill(ws.fill, memory.PermRead, 0, false)
	}
	ws.level++
	ws.step()
}

// step processes one page-table level access, then schedules the next.
func (ws *walkState) step() {
	w := ws.w
	if ws.level >= ws.levels {
		w.finish(ws)
		return
	}
	addr := uint64(ws.tr[ws.level])
	cacheable := ws.level < w.cfg.CachedLevels
	if cacheable {
		if _, hit := w.pwc.Access(addr, false); hit {
			w.stats.PWCHits++
			w.eng.ScheduleEvent(w.cfg.PWCHitLatency, ws, walkPWCHit)
			return
		}
		w.stats.PWCMisses++
	}
	// At most one memory read is in flight per walk thread, so fill and
	// cacheable stay stable until the read returns.
	ws.fill = addr
	ws.cacheable = cacheable
	w.mem.Access(false, ws, walkMemRead)
}

func (w *Walker) finish(ws *walkState) {
	w.Trace.Emit("walk.finish", uint64(ws.vpn))
	w.stats.WalkCycles += w.eng.Now() - ws.began
	// Large-page walks legitimately resolve in three levels; only an
	// invalid PTE is a fault.
	res := Result{PTE: ws.pte, Fault: !ws.pte.Valid}
	if res.Fault {
		w.stats.Faults++
	}
	w.busy--
	c := ws.c
	ws.c = nil // release the client before pooling
	w.free = append(w.free, ws)
	// Start a queued walk, if any, before delivering the result so the
	// pool stays saturated.
	if w.QueueLen() > 0 {
		next := w.dequeue()
		w.stats.QueueDelay += w.eng.Now() - next.enqueued
		w.start(next.vpn, next.c)
	}
	c.Walked(res)
}

func (w *Walker) String() string {
	return fmt.Sprintf("ptw{threads: %d, busy: %d, queued: %d, walks: %d}",
		w.cfg.Threads, w.busy, w.QueueLen(), w.stats.Walks)
}
