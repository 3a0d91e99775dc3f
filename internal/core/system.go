package core

import (
	"context"
	"errors"
	"fmt"

	"vcache/internal/cache"
	"vcache/internal/dram"
	"vcache/internal/fbt"
	"vcache/internal/gpu"
	"vcache/internal/iommu"
	"vcache/internal/memory"
	"vcache/internal/noc"
	"vcache/internal/obs"
	"vcache/internal/ptw"
	"vcache/internal/sim"
	"vcache/internal/stats"
	"vcache/internal/tlb"
	"vcache/internal/trace"
)

// ErrDeadlock is returned (or wrapped) when the event queue drains before
// the GPU retires every warp — a modeling bug, not a workload property.
var ErrDeadlock = errors.New("core: engine drained before GPU completed (deadlock)")

// FaultCounts records exceptional events during a run.
type FaultCounts struct {
	PageFaults uint64 // translation found no mapping
	PermFaults uint64 // access violated page permissions
	RWSynonym  uint64 // read-write synonym detected at the FBT
}

// ProbeBreakdown classifies per-CU TLB misses by where the requested data
// resided at miss time (Figure 2). Only meaningful for designs with per-CU
// TLBs and ProbeResidency enabled.
type ProbeBreakdown struct {
	TLBMisses uint64
	L1Hit     uint64
	L2Hit     uint64
	MemAccess uint64
}

// FilteredRatio returns the fraction of TLB misses that found data in the
// cache hierarchy (the paper's headline 66%).
func (p ProbeBreakdown) FilteredRatio() float64 {
	if p.TLBMisses == 0 {
		return 0
	}
	return float64(p.L1Hit+p.L2Hit) / float64(p.TLBMisses)
}

// Lifetimes holds residence-time CDFs for the appendix figure.
type Lifetimes struct {
	TLBEntries stats.CDF // per-CU TLB entry residence
	L1Data     stats.CDF // L1 line active lifetime
	L2Data     stats.CDF // L2 line active lifetime
}

// System is a fully assembled SoC ready to run one trace.
type System struct {
	cfg     Config
	eng     *sim.Engine
	net     *noc.Network
	mem     *dram.DRAM
	as      *memory.AddressSpace
	spaces  map[memory.ASID]*memory.AddressSpace
	alloc   *memory.FrameAlloc
	walker  *ptw.Walker
	gpu     *gpu.GPU
	io      *iommu.IOMMU
	fbt     *fbt.FBT
	l2      *cache.Cache
	l2banks []*sim.BandwidthServer
	l1s     []*cache.Cache
	cuTLBs  []*tlb.TLB
	cuTLB2s []*tlb.TLB           // optional private second-level TLBs
	filters []map[memory.VPN]int // per-CU L1 invalidation filters
	remaps  []*remapTable        // per-CU dynamic synonym remap tables

	asid memory.ASID

	probe     ProbeBreakdown
	faults    FaultCounts // backend-side faults; per-CU faults live in cuStats
	lifetimes *Lifetimes  // backend L2 CDF during the run; merged in results()

	// cuStats holds every counter a CU front end increments on its own:
	// one slot per CU so the partition workers never share a counter (or
	// a waiter-list pool); results sum the slots in CU order.
	cuStats []cuCounters

	// tlbPending merges concurrent same-page TLB misses per CU; l2Pending
	// merges concurrent misses to the same line (MSHR behaviour). The
	// pools recycle drained waiter lists so steady-state miss merging does
	// not allocate.
	tlbPending []map[memory.VPN][]func(memory.PTE, bool)
	l2Pending  map[uint64][]lineWaiter
	linePool   [][]lineWaiter
	lineMerges uint64

	// batch holds the per-CU frame pools of the batched translation
	// front-end; nil while the per-line path is in use.
	batch []batchPool

	synonymReplays uint64
	fbtInvalLines  uint64 // L2 lines invalidated on FBT eviction/shootdown
	l2PagePeak     int    // max distinct pages seen in L2 (sampled on fills)
	fillsSincePage int
	finishCycle    uint64 // cycle the last warp retired

	intra intraState // the System's partitions (see intra.go)

	reg *obs.Registry
}

// cuCounters is the per-CU slice of formerly-global bookkeeping: faults,
// miss-merge and remap counters, lifetime CDFs, and the TLB waiter-list
// pool. Everything here is touched only by the owning CU's front end, so
// in a partitioned run each slot belongs to exactly one worker.
type cuCounters struct {
	faults        FaultCounts
	tlbMerges     uint64
	remapHits     uint64
	l1FullFlushes uint64
	batch         BatchStats // batched translation front-end activity
	tlbLife       stats.CDF  // per-CU TLB entry residence (TrackLifetimes)
	l1Life        stats.CDF  // L1 line active lifetime (TrackLifetimes)
	waitPool      [][]func(memory.PTE, bool)
}

// New assembles a system from cfg. An invalid configuration returns a
// *ConfigError instead of a system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	s := &System{cfg: cfg, eng: eng}

	s.net = noc.New(eng)
	s.net.AddLink(noc.CUToL2, cfg.Lat.CUToL2, 0)
	s.net.AddLink(noc.CUToIOMMU, cfg.Lat.CUToIOMMU, 0)
	s.net.AddLink(noc.L2ToIOMMU, cfg.Lat.L2ToIOMMU, 0)
	s.partition()

	s.mem = dram.New(eng, cfg.DRAM)
	s.alloc = memory.NewFrameAlloc(1 << 20)
	s.as = memory.NewAddressSpace(1, s.alloc)
	s.asid = s.as.ID
	s.spaces = map[memory.ASID]*memory.AddressSpace{s.asid: s.as}

	s.walker = ptw.New(eng, cfg.IOMMU.Walker, s.as.Table, s.mem)
	s.io = iommu.New(eng, cfg.IOMMU, s.walker)

	// Shared L2 and its banks.
	s.l2 = cache.New(cfg.L2)
	s.l2.Clock = eng.Now
	banks := cfg.L2.Banks
	if banks < 1 {
		banks = 1
	}
	for i := 0; i < banks; i++ {
		s.l2banks = append(s.l2banks, sim.NewBandwidthServer(eng, cfg.L2BankPorts))
	}

	// Per-CU L1s, TLBs, invalidation filters, and TLB-miss MSHRs.
	s.l2Pending = make(map[uint64][]lineWaiter)
	s.cuStats = make([]cuCounters, cfg.GPU.NumCUs)
	for i := 0; i < cfg.GPU.NumCUs; i++ {
		cuEng := s.cuEng(i)
		l1 := cache.New(cfg.L1)
		l1.Clock = cuEng.Now
		s.l1s = append(s.l1s, l1)
		s.filters = append(s.filters, make(map[memory.VPN]int))
		s.tlbPending = append(s.tlbPending, make(map[memory.VPN][]func(memory.PTE, bool)))
		if cfg.DynamicSynonymRemap {
			s.remaps = append(s.remaps, newRemapTable(cfg.RemapEntries))
		}
		t := tlb.New(cfg.PerCUTLB)
		t.Clock = cuEng.Now
		s.cuTLBs = append(s.cuTLBs, t)
		if cfg.PerCUTLB2 != (tlb.Config{}) {
			t2 := tlb.New(cfg.PerCUTLB2)
			t2.Clock = cuEng.Now
			s.cuTLB2s = append(s.cuTLB2s, t2)
		}
	}

	if cfg.Kind == VirtualHierarchy {
		s.fbt = fbt.New(cfg.FBT)
		if cfg.UseFBTSecondLevel {
			s.io.SecondLevel = s.fbt
		}
		s.fbt.OnEvict = s.onFBTEvict
		s.l2.OnEvict = s.onVirtualL2Evict
	} else {
		s.l2.OnEvict = s.onPhysicalL2Evict
	}
	for cu := range s.l1s {
		cu := cu
		s.l1s[cu].OnEvict = func(l cache.Line) { s.onL1Evict(cu, l) }
	}

	if cfg.TrackLifetimes {
		s.lifetimes = &Lifetimes{}
		for cu, t := range s.cuTLBs {
			cu := cu
			t.OnEvict = func(e tlb.Entry, life uint64) {
				s.cuStats[cu].tlbLife.Add(float64(life))
			}
		}
	}

	s.gpu = gpu.New(cfg.GPU, s, (*gpuFabric)(s))
	if cfg.BatchedTranslation {
		s.enableBatching()
	}
	s.buildRegistry()
	s.registerPartitionGauges()
	return s, nil
}

// MustNew is New for callers with a known-good configuration; it panics on
// a validation error (the pre-redesign New behaviour).
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// buildRegistry wires every component's counters into the system's metrics
// registry under the hierarchical naming scheme ("l1.cu3.read_hits",
// "iommu.tlb.misses", "ptw.walks.inflight"). Registration stores pointers
// into the live stats structs, so the registry costs nothing until a
// snapshot is taken.
func (s *System) buildRegistry() {
	r := obs.NewRegistry()
	s.reg = r

	r.Gauge("sim.cycles", func() float64 { return float64(s.simNow()) })
	r.Gauge("sim.fired", func() float64 { return float64(s.totalFired()) })
	r.Gauge("sim.pending", func() float64 { return float64(s.totalPending()) })

	s.gpu.Observe(r.Scope("gpu"))
	s.mem.Observe(r.Scope("dram"))
	s.net.Observe(r.Scope("noc"))
	s.walker.Observe(r.Scope("ptw"))
	s.io.Observe(r.Scope("iommu"))
	s.l2.Observe(r.Scope("l2"))
	r.IntGauge("l2.page_peak", &s.l2PagePeak)
	for i := range s.l1s {
		s.l1s[i].Observe(r.Scope(fmt.Sprintf("l1.cu%d", i)))
	}
	for i := range s.cuTLBs {
		s.cuTLBs[i].Observe(r.Scope(fmt.Sprintf("tlb.cu%d", i)))
	}
	for i := range s.cuTLB2s {
		s.cuTLB2s[i].Observe(r.Scope(fmt.Sprintf("tlb2.cu%d", i)))
	}
	if s.fbt != nil {
		s.fbt.Observe(r.Scope("fbt"))
	}

	// Per-CU counters are summed at snapshot time (gauges), so the
	// exported names and values match the pre-partitioning registry.
	sumCU := func(f func(*cuCounters) uint64) func() float64 {
		return func() float64 {
			var t uint64
			for i := range s.cuStats {
				t += f(&s.cuStats[i])
			}
			return float64(t)
		}
	}
	// Batched translation front-end counters (zero unless the batched path
	// is enabled). Chunks-vs-lines gives the within-warp page dedup.
	tb := r.Scope("tlb.batch")
	tb.Gauge("calls", sumCU(func(c *cuCounters) uint64 { return c.batch.Calls }))
	tb.Gauge("lines", sumCU(func(c *cuCounters) uint64 { return c.batch.Lines }))
	tb.Gauge("chunks", sumCU(func(c *cuCounters) uint64 { return c.batch.Chunks }))
	tb.Gauge("hit_chunks", sumCU(func(c *cuCounters) uint64 { return c.batch.HitChunks }))
	tb.Gauge("inline_hits", sumCU(func(c *cuCounters) uint64 { return c.batch.InlineHits }))
	tb.Gauge("dedup_ratio", func() float64 {
		var b BatchStats
		for i := range s.cuStats {
			b.Lines += s.cuStats[i].batch.Lines
			b.Chunks += s.cuStats[i].batch.Chunks
		}
		return b.DedupRatio()
	})

	c := r.Scope("core")
	c.Counter("synonym_replays", &s.synonymReplays)
	c.Gauge("remap_hits", sumCU(func(c *cuCounters) uint64 { return c.remapHits }))
	c.Gauge("l1_full_flushes", sumCU(func(c *cuCounters) uint64 { return c.l1FullFlushes }))
	c.Counter("fbt_inval_lines", &s.fbtInvalLines)
	c.Gauge("tlb_merges", sumCU(func(c *cuCounters) uint64 { return c.tlbMerges }))
	c.Counter("line_merges", &s.lineMerges)
	c.Gauge("faults.page", func() float64 {
		return float64(s.faults.PageFaults) + sumCU(func(c *cuCounters) uint64 { return c.faults.PageFaults })()
	})
	c.Gauge("faults.perm", func() float64 {
		return float64(s.faults.PermFaults) + sumCU(func(c *cuCounters) uint64 { return c.faults.PermFaults })()
	})
	c.Gauge("faults.rw_synonym", func() float64 {
		return float64(s.faults.RWSynonym) + sumCU(func(c *cuCounters) uint64 { return c.faults.RWSynonym })()
	})
}

// simNow returns the simulation clock: the furthest-ahead partition (at
// window barriers all partitions agree).
func (s *System) simNow() uint64 {
	var max uint64
	for _, e := range s.intra.engines {
		if n := e.Now(); n > max {
			max = n
		}
	}
	return max
}

// totalFired returns events executed across all engines.
func (s *System) totalFired() uint64 {
	var t uint64
	for _, e := range s.intra.engines {
		t += e.Fired()
	}
	return t
}

// totalPending returns queued events across all engines (cross-partition
// messages still in mailboxes are not counted).
func (s *System) totalPending() int {
	t := 0
	for _, e := range s.intra.engines {
		t += e.Pending()
	}
	return t
}

// Metrics exposes the system's metrics registry: every component's live
// counters under hierarchical names, snapshottable at any cycle.
func (s *System) Metrics() *obs.Registry { return s.reg }

// AttachTrace points every component event emitter at sink, stamping
// events with the owning engine's clock (the backend clock, or the CU's
// partition clock for per-CU TLBs). Passing nil detaches them, restoring
// the free disabled path.
func (s *System) AttachTrace(sink obs.EventSink) {
	emitter := func(comp string, clock func() uint64) *obs.Emitter {
		if sink == nil {
			return nil
		}
		return obs.NewEmitter(sink, comp, clock)
	}
	s.io.Trace = emitter("iommu", s.eng.Now)
	s.io.TLB().Trace = emitter("iommu.tlb", s.eng.Now)
	s.walker.Trace = emitter("ptw", s.eng.Now)
	if s.fbt != nil {
		s.fbt.Trace = emitter("fbt", s.eng.Now)
	}
	for i := range s.cuTLBs {
		s.cuTLBs[i].Trace = emitter(fmt.Sprintf("tlb.cu%d", i), s.cuEng(i).Now)
	}
	for i := range s.cuTLB2s {
		s.cuTLB2s[i].Trace = emitter(fmt.Sprintf("tlb2.cu%d", i), s.cuEng(i).Now)
	}
}

// Engine exposes the backend partition's event engine, whose clock is the
// System's clock between runs (examples and tests schedule coherence
// probes on it and drive it directly).
func (s *System) Engine() *sim.Engine { return s.eng }

// Space exposes the current address space so callers can install synonym
// mappings or change permissions before (or between) runs.
func (s *System) Space() *memory.AddressSpace { return s.as }

// Frames exposes the shared physical frame allocator, for callers that
// build cross-address-space shared mappings (frames allocated here belong
// to the caller; install them with AddressSpace.MapFrame).
func (s *System) Frames() *memory.FrameAlloc { return s.alloc }

// SpaceFor returns the address space for asid, creating it on first use.
// All spaces share one physical frame allocator.
func (s *System) SpaceFor(asid memory.ASID) *memory.AddressSpace {
	if sp, ok := s.spaces[asid]; ok {
		return sp
	}
	sp := memory.NewAddressSpace(asid, s.alloc)
	s.spaces[asid] = sp
	return sp
}

// contextSwitch makes asid the running address space. TLBs are ASID-tagged
// and keep their entries. With Config.ASIDTags the virtual caches keep
// their (ASID-extended) contents too — the paper's §4.3 homonym handling;
// without tags, the virtual caches and FBT must flush, like a
// conventional virtually-tagged cache on a process switch.
func (s *System) contextSwitch(asid memory.ASID) {
	if asid == s.asid {
		return
	}
	if !s.cfg.ASIDTags && (s.cfg.Kind == VirtualHierarchy || s.cfg.Kind == L1OnlyVirtual) {
		s.FlushGPU()
		if s.cfg.Kind == VirtualHierarchy {
			for cu := range s.l1s {
				s.l1s[cu].InvalidateAll()
				s.filters[cu] = make(map[memory.VPN]int)
			}
		}
	}
	s.as = s.SpaceFor(asid)
	s.asid = asid
	s.walker.SetTable(s.as.Table)
	s.clearRemaps()
}

// clearRemaps conservatively drops all dynamic synonym remappings (their
// leading pages may no longer be leading).
func (s *System) clearRemaps() {
	for _, r := range s.remaps {
		r.clear()
	}
}

// vkeyFor forms the virtual-cache lookup key for an address in the given
// space: with ASID tags the space id extends the tag so homonyms can never
// alias (the paper's §4.3 multi-process support).
func (s *System) vkeyFor(va memory.VAddr, asid memory.ASID) uint64 {
	if s.cfg.ASIDTags {
		return uint64(va) | uint64(asid)<<52
	}
	return uint64(va)
}

// vkey forms the lookup key under the running address space.
func (s *System) vkey(va memory.VAddr) uint64 { return s.vkeyFor(va, s.asid) }

// vunkey recovers the virtual address from a cache key.
func vunkey(key uint64) memory.VAddr { return memory.VAddr(key & (1<<52 - 1)) }

// FBT exposes the forward-backward table (nil outside VirtualHierarchy).
func (s *System) FBT() *fbt.FBT { return s.fbt }

// IOMMU exposes the translation unit.
func (s *System) IOMMU() *iommu.IOMMU { return s.io }

// L2 exposes the shared cache.
func (s *System) L2() *cache.Cache { return s.l2 }

// L1 exposes a per-CU cache.
func (s *System) L1(cu int) *cache.Cache { return s.l1s[cu] }

// PerCUTLB exposes a per-CU TLB.
func (s *System) PerCUTLB(cu int) *tlb.TLB { return s.cuTLBs[cu] }

// Prepare demand-maps every page the trace touches, modeling a warmed-up
// process whose working set has already minor-faulted in (the paper
// measures steady-state translation behaviour, not first-touch OS faults).
// Pages already mapped — e.g. synonym aliases installed via Space() — are
// left untouched.
func (s *System) Prepare(tr *trace.Trace) {
	for _, cu := range tr.CUs {
		for _, w := range cu.Warps {
			for _, in := range w {
				if in.Kind == trace.Load || in.Kind == trace.Store {
					for _, a := range tr.Addrs(in) {
						if s.cfg.LargePages {
							s.as.EnsureMappedLarge(a)
						} else {
							s.as.EnsureMapped(a)
						}
					}
				}
			}
		}
	}
}

// PrepareCursor demand-maps every page a streamed trace touches, in the
// footer's recorded first-touch order — the exact order Prepare walks the
// materialized equivalent — so sequential frame assignment, and therefore
// every physically-indexed structure downstream, is byte-identical
// between the two paths.
func (s *System) PrepareCursor(c *trace.Cursor) {
	for _, vpn := range c.Premap() {
		if s.cfg.LargePages {
			s.as.EnsureMappedLarge(vpn.Base())
		} else {
			s.as.EnsureMapped(vpn.Base())
		}
	}
}

// traceInput abstracts the two ways a trace reaches the system: fully
// materialized (trace.Trace) or streamed chunk by chunk (trace.Cursor).
// Run bodies are written once against this interface; the streamed form
// adds only a post-run error check (a truncated or corrupt stream ends
// warps early, which must fail the run, not shorten it).
type traceInput interface {
	name() string
	inASID() memory.ASID
	prepare(s *System)
	launch(s *System, onComplete func())
	finishErr() error
}

type materializedInput struct{ tr *trace.Trace }

func (m materializedInput) name() string                  { return m.tr.Name }
func (m materializedInput) inASID() memory.ASID           { return m.tr.ASID }
func (m materializedInput) prepare(s *System)             { s.Prepare(m.tr) }
func (m materializedInput) launch(s *System, done func()) { s.gpu.Launch(m.tr, done) }
func (m materializedInput) finishErr() error              { return nil }

type cursorInput struct{ c *trace.Cursor }

func (ci cursorInput) name() string                  { return ci.c.Name() }
func (ci cursorInput) inASID() memory.ASID           { return ci.c.ASID() }
func (ci cursorInput) prepare(s *System)             { s.PrepareCursor(ci.c) }
func (ci cursorInput) launch(s *System, done func()) { s.gpu.LaunchStream(ci.c, done) }
func (ci cursorInput) finishErr() error              { return ci.c.Err() }

// Run prepares and executes the trace to completion, returning results.
// It panics on a modeling deadlock; RunContext is the error-returning,
// cancellable, observable form.
func (s *System) Run(tr *trace.Trace) Results {
	res, err := s.RunContext(context.Background(), tr)
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext prepares and executes the trace to completion, honouring ctx
// and the given options. Execution proceeds in conservative windows over
// the System's partitions (see intra.go); cancellation, metrics snapshots
// and progress are serviced at window barriers, so a cancelled run stops
// mid-simulation and returns ctx.Err(). The schedule is a pure function
// of the configuration: options only add observers or workers.
func (s *System) RunContext(ctx context.Context, tr *trace.Trace, opts ...Option) (Results, error) {
	return s.runInput(ctx, materializedInput{tr}, opts)
}

// RunCursor is RunContext over a streamed chunked trace: the GPU pulls
// instruction segments from the cursor as warps advance, so peak memory
// stays bounded by the cursor's chunk window no matter how long the trace
// is. The event schedule — and therefore Results, at any parallelism — is
// byte-identical to RunContext over the materialized equivalent. A stream
// that fails mid-run (truncation, corruption) returns the cursor's error.
// The cursor is shared by all partition workers (its segment hand-off is
// mutex-guarded), and refills are host work, so the schedule is
// unchanged.
func (s *System) RunCursor(ctx context.Context, c *trace.Cursor, opts ...Option) (Results, error) {
	return s.runInput(ctx, cursorInput{c}, opts)
}

func (s *System) runInput(ctx context.Context, in traceInput, opts []Option) (Results, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.events != nil {
		s.AttachTrace(o.events)
	}
	s.contextSwitch(in.inASID())
	in.prepare(s)
	s.startRun(o.workers, o.events != nil)
	completed := false
	in.launch(s, func() {
		completed = true
		s.finishCycle = s.eng.Now()
	})

	interval := o.metricsInterval
	if interval == 0 {
		interval = defaultMetricsInterval
	}
	nextSnap := s.eng.Now() + interval
	var lastProgress uint64
	var err error
	onWindow := func(limit uint64) bool {
		if e := ctx.Err(); e != nil {
			err = e
			return false
		}
		if o.wantsMetrics() && limit >= nextSnap {
			s.flushRouteCounts()
			s.emitSnapshot(&o)
			for nextSnap <= limit {
				nextSnap += interval
			}
		}
		if o.progress != nil {
			if f := s.totalFired(); f-lastProgress >= 1<<16 {
				lastProgress = f
				o.progress(Progress{Cycle: limit, Events: f})
			}
		}
		return true
	}
	s.runWindows(onWindow)
	if err != nil {
		return Results{}, err
	}
	if e := in.finishErr(); e != nil {
		return Results{}, e
	}
	if !completed {
		return Results{}, ErrDeadlock
	}
	s.io.ExtendSampling()
	res := s.results(in.name())
	if o.wantsMetrics() {
		s.emitSnapshot(&o) // final totals at the end-of-run cycle
	}
	return res, o.sinkErr
}

// emitSnapshot reads the registry once and feeds every attached consumer.
func (s *System) emitSnapshot(o *options) {
	snap := s.reg.Snapshot(s.simNow())
	if o.snapshot != nil {
		o.snapshot(snap)
	}
	if o.metricsSink != nil {
		if err := snap.WriteJSONL(o.metricsSink); err != nil && o.sinkErr == nil {
			o.sinkErr = err
		}
	}
}

// onL1Evict maintains the invalidation filter counts and lifetime CDF.
func (s *System) onL1Evict(cu int, l cache.Line) {
	if s.cfg.Kind == VirtualHierarchy || s.cfg.Kind == L1OnlyVirtual {
		vpn := vunkey(l.Addr).Page()
		if n := s.filters[cu][vpn]; n > 1 {
			s.filters[cu][vpn] = n - 1
		} else {
			delete(s.filters[cu], vpn)
		}
	}
	if s.lifetimes != nil {
		s.cuStats[cu].l1Life.Add(float64(l.ActiveLifetime()))
	}
	// Write-through L1s never hold dirty data; nothing to write back.
}

// trackL1Fill bumps the invalidation filter when a line enters an L1.
func (s *System) trackL1Fill(cu int, va memory.VAddr) {
	if s.cfg.Kind == VirtualHierarchy || s.cfg.Kind == L1OnlyVirtual {
		s.filters[cu][va.Page()]++
	}
}

// onVirtualL2Evict keeps the BT bit vectors inclusive of the L2 and writes
// back dirty lines.
func (s *System) onVirtualL2Evict(l cache.Line) {
	va := vunkey(l.Addr)
	s.fbt.ClearLine(l.ASID, va.Page(), va.LineIndex())
	if l.Dirty {
		s.mem.Access(true, func() {})
	}
	if s.lifetimes != nil {
		s.lifetimes.L2Data.Add(float64(l.ActiveLifetime()))
	}
}

// onPhysicalL2Evict writes back dirty lines.
func (s *System) onPhysicalL2Evict(l cache.Line) {
	if l.Dirty {
		s.mem.Access(true, func() {})
	}
	if s.lifetimes != nil {
		s.lifetimes.L2Data.Add(float64(l.ActiveLifetime()))
	}
}

// onFBTEvict implements §4.2: on FBT entry eviction (or shootdown), the
// page's L2 lines are selectively invalidated via the bit vector, and each
// CU whose invalidation filter matches conservatively flushes its whole L1
// (GPU L1s support no probes). Write-through L1s lose no dirty data.
func (s *System) onFBTEvict(v fbt.View) {
	base := v.LVPN.Base()
	for idx := 0; idx < memory.LinesPerPage; idx++ {
		if v.BitVec&(1<<uint(idx)) == 0 {
			continue
		}
		addr := s.vkeyFor(base+memory.VAddr(idx*memory.LineSize), v.ASID)
		if dirty, was := s.l2.InvalidateLine(addr); was {
			s.fbtInvalLines++
			if dirty {
				s.mem.Access(true, func() {})
			}
		}
	}
	// Filters and L1s are front-end state: during a run the flush decision
	// and the flush itself travel to each CU as a message over the GPU
	// network; between runs (a shootdown or flush from the host) they take
	// effect before the operation returns.
	for cu := range s.l1s {
		if s.intra.running {
			s.sendL1Inval(cu, v.LVPN)
		} else {
			s.invalidateL1(cu, v.LVPN)
		}
	}
}

// invalidateL1 applies an FBT eviction of page lvpn at cu: the CU flushes
// its whole L1 when its invalidation filter matches the page, and always
// without filters.
func (s *System) invalidateL1(cu int, lvpn memory.VPN) {
	if !s.cfg.InvFilter || s.filters[cu][lvpn] > 0 {
		s.flushL1(cu)
	}
}

func (s *System) flushL1(cu int) {
	if s.l1s[cu].Resident() == 0 {
		return
	}
	s.cuStats[cu].l1FullFlushes++
	s.l1s[cu].InvalidateAll()
	s.filters[cu] = make(map[memory.VPN]int)
}

// fault records an exceptional event per the configured policy.
func (s *System) fault(kind string, c *uint64) {
	*c++
	if s.cfg.Faults == PanicOnFault {
		panic("core: fault: " + kind)
	}
}

// sampleL2Pages opportunistically tracks the distinct-page peak (the
// paper's ~6000 pages observation) without scanning on every fill.
func (s *System) sampleL2Pages() {
	s.fillsSincePage++
	if s.fillsSincePage < 2048 {
		return
	}
	s.fillsSincePage = 0
	if n := s.l2.DistinctPages(); n > s.l2PagePeak {
		s.l2PagePeak = n
	}
}
