package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"vcache/internal/cache"
	"vcache/internal/dram"
	"vcache/internal/fbt"
	"vcache/internal/flatmap"
	"vcache/internal/gpu"
	"vcache/internal/iommu"
	"vcache/internal/memory"
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

// ErrStopped is returned by every run on a System after one of its runs
// ended without completing (cancelled, failed mid-stream or deadlocked),
// wrapping the error that ended it. Such a run leaves its kernel's warps
// live and its events queued, so a later run on the System would start
// among them; Reset the System (or build a new one) to run the next trace.
var ErrStopped = errors.New("core: system stopped by an earlier run")

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

// System is a fully assembled SoC. It runs trace after trace, each run
// starting from the state the last one left (warm caches and TLBs, the
// clock where it stopped), until Reset returns it to the state New leaves
// it in, so one System serves many independent runs of its configuration.
type System struct {
	cfg     Config
	eng     *sim.Engine
	routes  [numRoutes]route // the interconnect (intra.go)
	mem     *dram.DRAM
	as      *memory.AddressSpace
	spaces  map[memory.ASID]*memory.AddressSpace
	idle    []*memory.AddressSpace // released by RetireASID, for SpaceFor to reuse
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
	filters []flatmap.Map[int32] // per-CU L1 invalidation filters: VPN -> lines in the L1 (filtersL1)
	remaps  []*remapTable        // per-CU dynamic synonym remap tables

	remapFree []*remapUpdate // delivered remap messages, for sendRemap to reuse

	asid memory.ASID

	probe     ProbeBreakdown
	faults    FaultCounts
	lifetimes *Lifetimes // cumulative over every run since Reset (TrackLifetimes)

	// tlbPending merges concurrent same-page TLB misses per CU (keyed by
	// VPN); l2Pending merges concurrent misses to the same line (MSHR
	// behaviour; keyed by the line's cache address). reqs holds free
	// request records (request.go), so steady-state requests and miss
	// merging do not allocate.
	tlbPending []flatmap.Merge[*request]
	l2Pending  flatmap.Merge[*request]
	reqs       []*request
	tlbMerges  uint64
	lineMerges uint64

	synonymReplays uint64
	remapHits      uint64
	l1FullFlushes  uint64
	fbtInvalLines  uint64 // L2 lines invalidated on FBT eviction/shootdown
	l2PagePeak     int    // max distinct pages seen in L2 (sampled on fills)
	fillsSincePage int
	finishCycle    uint64 // cycle the last warp retired
	completed      bool   // the launched kernel's last warp retired
	kernelDone     func() // onKernelDone, bound once for every launch
	stopped        error  // ErrStopped and what ended a run that did not complete

	intra intraState // the System's partitions (see intra.go)

	reg *obs.Registry
}

// New assembles a system from cfg, ready for its first run. An invalid
// configuration returns a *ConfigError instead of a system. New allocates
// and wires the components, then calls Reset, so every run starts from
// state that one path initializes.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := assemble(cfg)
	s.Reset()
	return s, nil
}

// assemble allocates the System's components for cfg and wires them
// together; Reset sets the state a run starts from.
func assemble(cfg Config) *System {
	eng := sim.New()
	s := &System{cfg: cfg, eng: eng}

	s.routes = [numRoutes]route{
		routeL2:      {latency: cfg.Lat.CUToL2},
		routeIOMMU:   {latency: cfg.Lat.CUToIOMMU},
		routeL2IOMMU: {latency: cfg.Lat.L2ToIOMMU},
	}
	s.partition()

	s.mem = dram.New(eng, cfg.DRAM)
	s.alloc = memory.NewFrameAlloc(1 << 20)
	s.as = memory.NewAddressSpace(1, s.alloc)
	s.spaces = make(map[memory.ASID]*memory.AddressSpace)

	s.walker = ptw.New(eng, cfg.IOMMU.Walker, s.as.Table, s.mem)
	s.io = iommu.New(eng, cfg.IOMMU, s.walker)

	// Shared L2 and its banks.
	s.l2 = cache.New(cfg.L2)
	s.l2.TrackPages() // L2DistinctPages
	banks := cfg.L2.Banks
	if banks < 1 {
		banks = 1
	}
	for i := 0; i < banks; i++ {
		s.l2banks = append(s.l2banks, sim.NewBandwidthServer(eng, cfg.L2BankPorts))
	}

	// Per-CU L1s, TLBs, invalidation filters, and TLB-miss MSHRs.
	s.filters = make([]flatmap.Map[int32], cfg.GPU.NumCUs)
	s.tlbPending = make([]flatmap.Merge[*request], cfg.GPU.NumCUs)
	for i := 0; i < cfg.GPU.NumCUs; i++ {
		l1 := cache.New(cfg.L1)
		s.l1s = append(s.l1s, l1)
		if cfg.DynamicSynonymRemap {
			s.remaps = append(s.remaps, newRemapTable(cfg.RemapEntries))
		}
		s.cuTLBs = append(s.cuTLBs, tlb.New(cfg.PerCUTLB))
		if cfg.PerCUTLB2 != (tlb.Config{}) {
			s.cuTLB2s = append(s.cuTLB2s, tlb.New(cfg.PerCUTLB2))
		}
	}

	if cfg.Kind == VirtualHierarchy {
		s.fbt = fbt.New(cfg.FBT)
		s.fbt.OnEvict = s.onFBTEvict
		s.l2.OnEvict = s.onVirtualL2Evict
	} else {
		s.l2.OnEvict = s.onPhysicalL2Evict
	}
	for cu := range s.l1s {
		cu := cu
		s.l1s[cu].OnEvict = func(l cache.Line) { s.onL1Evict(cu, l) }
	}

	// Only the structures whose lifetimes Figure 12 reads keep stamps.
	if cfg.TrackLifetimes {
		s.l2.TrackLifetimes(eng.Now)
		for _, l1 := range s.l1s {
			l1.TrackLifetimes(eng.Now)
		}
		for _, t := range s.cuTLBs {
			t.TrackLifetimes(eng.Now)
			t.OnEvict = func(e tlb.Entry, life uint64) {
				s.lifetimes.TLBEntries.Add(float64(life))
			}
		}
	}

	s.gpu = gpu.New(cfg.GPU, eng, s, (*gpuFabric)(s))
	s.kernelDone = s.onKernelDone
	s.buildRegistry()
	s.registerPartitionGauges()
	return s
}

// Reset returns the System to exactly the state New leaves it in, whether
// its last run completed, failed or was cancelled, so a stopped System
// runs again: the clock at cycle 0, every cache, TLB, FBT and page-walk
// cache empty, every counter zero, no event or message queued, no warp
// bound, one empty address space (ASID 1) over a frame allocator back at
// its first frame, and the event emitters detached. A run after Reset
// gives the bytes a run on a new System of the same configuration gives.
//
// Reset keeps the storage of every table, pool and queue, so it allocates
// nothing, except the new lifetime record of a TrackLifetimes System: the
// Results of earlier runs keep theirs. The metrics registry stays as
// built, reading the same counters. Pointers into the System's address
// spaces obtained before Reset (Space, SpaceFor) must not be used after.
func (s *System) Reset() {
	s.eng.Reset()
	s.intra.part.Reset()
	s.intra.running, s.intra.ran = false, false
	for i := range s.routes {
		s.routes[i].messages = 0
	}
	s.mem.Reset()
	s.resetSpaces()
	s.walker.Reset(s.as.Table)
	s.io.Reset()
	s.io.SecondLevel = nil
	if s.cfg.UseFBTSecondLevel {
		s.io.SecondLevel = s.fbt
	}
	if s.fbt != nil {
		s.fbt.Reset()
	}
	s.l2.Reset()
	for _, b := range s.l2banks {
		b.Reset()
	}
	for cu := range s.l1s {
		s.l1s[cu].Reset()
		s.cuTLBs[cu].Reset()
		s.filters[cu].Reset()
		s.tlbPending[cu].Reset()
	}
	for _, t := range s.cuTLB2s {
		t.Reset()
	}
	s.clearRemaps()
	s.gpu.Reset()
	s.AttachTrace(nil)

	s.probe = ProbeBreakdown{}
	s.faults = FaultCounts{}
	if s.cfg.TrackLifetimes {
		s.lifetimes = &Lifetimes{}
	}
	s.l2Pending.Reset()
	s.tlbMerges, s.lineMerges = 0, 0
	s.synonymReplays, s.remapHits = 0, 0
	s.l1FullFlushes, s.fbtInvalLines = 0, 0
	s.l2PagePeak, s.fillsSincePage = 0, 0
	s.finishCycle = 0
	s.completed = false
	s.stopped = nil
}

// resetSpaces drops every address space's mappings, takes every frame
// back and rebuilds ASID 1 as New does, its root on the allocator's first
// frame; the other spaces wait on the idle list for SpaceFor.
func (s *System) resetSpaces() {
	for _, sp := range s.spaces {
		if sp != s.as {
			sp.Discard()
			s.idle = append(s.idle, sp)
		}
	}
	clear(s.spaces)
	s.as.Discard()
	s.alloc.Reset()
	s.as.Reuse(1)
	s.asid = s.as.ID
	s.spaces[s.asid] = s.as
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

	r.Gauge("sim.cycles", func() float64 { return float64(s.eng.Now()) })
	r.Gauge("sim.fired", func() float64 { return float64(s.eng.Fired()) })
	r.Gauge("sim.pending", func() float64 { return float64(s.eng.Pending()) })

	s.gpu.Observe(r.Scope("gpu"))
	s.mem.Observe(r.Scope("dram"))
	noc := r.Scope("noc")
	for i := range s.routes {
		noc.Scope(routeNames[i]).Counter("messages", &s.routes[i].messages)
	}
	s.walker.Observe(r.Scope("ptw"))
	s.io.Observe(r.Scope("iommu"))
	s.l2.Observe(r.Scope("l2"))
	r.IntGauge("l2.page_peak", &s.l2PagePeak)
	for i := range s.l1s {
		s.l1s[i].Observe(r.Scope("l1.cu" + strconv.Itoa(i)))
	}
	for i := range s.cuTLBs {
		s.cuTLBs[i].Observe(r.Scope("tlb.cu" + strconv.Itoa(i)))
	}
	for i := range s.cuTLB2s {
		s.cuTLB2s[i].Observe(r.Scope("tlb2.cu" + strconv.Itoa(i)))
	}
	if s.fbt != nil {
		s.fbt.Observe(r.Scope("fbt"))
	}

	c := r.Scope("core")
	c.Counter("synonym_replays", &s.synonymReplays)
	c.Counter("remap_hits", &s.remapHits)
	c.Counter("l1_full_flushes", &s.l1FullFlushes)
	c.Counter("fbt_inval_lines", &s.fbtInvalLines)
	c.Counter("tlb_merges", &s.tlbMerges)
	c.Counter("line_merges", &s.lineMerges)
	c.Counter("faults.page", &s.faults.PageFaults)
	c.Counter("faults.perm", &s.faults.PermFaults)
	c.Counter("faults.rw_synonym", &s.faults.RWSynonym)
}

// Metrics exposes the system's metrics registry: every component's live
// counters under hierarchical names, snapshottable at any cycle.
func (s *System) Metrics() *obs.Registry { return s.reg }

// AttachTrace points every component event emitter at sink, stamping
// events with the System's clock. Passing nil detaches them, restoring
// the free disabled path; detaching allocates nothing.
func (s *System) AttachTrace(sink obs.EventSink) {
	emitter := func(comp string, cu int) *obs.Emitter {
		if sink == nil {
			return nil
		}
		if cu >= 0 {
			comp += strconv.Itoa(cu)
		}
		return obs.NewEmitter(sink, comp, s.eng.Now)
	}
	s.io.Trace = emitter("iommu", -1)
	s.io.TLB().Trace = emitter("iommu.tlb", -1)
	s.walker.Trace = emitter("ptw", -1)
	if s.fbt != nil {
		s.fbt.Trace = emitter("fbt", -1)
	}
	for i := range s.cuTLBs {
		s.cuTLBs[i].Trace = emitter("tlb.cu", i)
	}
	for i := range s.cuTLB2s {
		s.cuTLB2s[i].Trace = emitter("tlb2.cu", i)
	}
}

// Now returns the System's clock: the cycle its last run reached.
func (s *System) Now() uint64 { return s.eng.Now() }

// Space exposes the current address space so callers can install synonym
// mappings or change permissions before (or between) runs.
func (s *System) Space() *memory.AddressSpace { return s.as }

// Frames exposes the shared physical frame allocator, for callers that
// build cross-address-space shared mappings (frames allocated here belong
// to the caller; install them with AddressSpace.MapFrame).
func (s *System) Frames() *memory.FrameAlloc { return s.alloc }

// SpaceFor returns the address space for asid, creating it on first use.
// All spaces share one physical frame allocator. A new space recycles one
// that RetireASID released, if there is one (AddressSpace.Reuse), so
// tenant rollover allocates nothing on the host once warm; the frames,
// PTEs and walks are those of a freshly built space either way.
func (s *System) SpaceFor(asid memory.ASID) *memory.AddressSpace {
	if sp, ok := s.spaces[asid]; ok {
		return sp
	}
	var sp *memory.AddressSpace
	if n := len(s.idle); n > 0 {
		sp = s.idle[n-1]
		s.idle = s.idle[:n-1]
		sp.Reuse(asid)
	} else {
		sp = memory.NewAddressSpace(asid, s.alloc)
	}
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
				s.filters[cu].Reset()
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
//
// Lanes are walked in first-touch order (cu-major, warp-major,
// instruction order, lane order), and a lane on the same 4KB page as the
// lane before it is skipped without a page-table probe: that page is
// mapped already, and mapping a mapped page does nothing, so the frames
// assigned are those of mapping every lane.
func (s *System) Prepare(tr *trace.Trace) {
	prev := ^memory.VPN(0) // no page: a page number has its top PageShift bits clear
	for _, cu := range tr.CUs {
		for _, w := range cu.Warps {
			for _, in := range w {
				if in.Kind != trace.Load && in.Kind != trace.Store {
					continue
				}
				for _, a := range tr.Addrs(in) {
					if a.Page() == prev {
						continue
					}
					prev = a.Page()
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
// mid-simulation and returns ctx.Err(). A run that does not complete
// stops the System: every later run on it returns ErrStopped. The
// schedule is a pure function of the configuration: options only add
// observers.
func (s *System) RunContext(ctx context.Context, tr *trace.Trace, opts ...Option) (Results, error) {
	if err := tr.Validate(); err != nil {
		return Results{}, err
	}
	return s.runInput(ctx, materializedInput{tr}, opts)
}

// Execute runs tr exactly as RunContext does, on the same path, and leaves
// the System in the same state, but collects no Results. A caller that
// replays many kernels on one System and reads only what it accumulates
// (the clock, the component counters) uses it: the IOMMU rate series in
// every Results covers every window since cycle 0, so collecting Results
// after each of n launches costs O(n^2) over the replay.
func (s *System) Execute(ctx context.Context, tr *trace.Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	var o options
	return s.execute(ctx, materializedInput{tr}, &o)
}

// RunCursor is RunContext over a streamed chunked trace: the GPU pulls
// instruction segments from the cursor as warps advance, so peak memory
// stays bounded by the cursor's chunk window no matter how long the trace
// is. The event schedule — and therefore Results — is byte-identical to
// RunContext over the materialized equivalent. A stream that fails mid-run
// (truncation, corruption) returns the cursor's error. Refills are host
// work (a prefetcher decodes the next chunk in the background), so the
// schedule is unchanged.
func (s *System) RunCursor(ctx context.Context, c *trace.Cursor, opts ...Option) (Results, error) {
	return s.runInput(ctx, cursorInput{c}, opts)
}

// runInput executes in and collects its Results.
func (s *System) runInput(ctx context.Context, in traceInput, opts []Option) (Results, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if err := s.execute(ctx, in, &o); err != nil {
		return Results{}, err
	}
	res := s.results(in.name())
	if o.wantsMetrics() {
		s.emitSnapshot(&o) // final totals at the end-of-run cycle
	}
	return res, o.sinkErr
}

// execute is the one run path: it prepares and launches in, runs the
// windows until the kernel completes or ctx stops them, and on completion
// ends with the epilogue that leaves every statistic results reads final.
// A run that ends otherwise stops the System, and execute refuses every
// later run with ErrStopped until Reset. An event trace the options
// attached is detached when the run returns, however it ends.
func (s *System) execute(ctx context.Context, in traceInput, o *options) error {
	if s.stopped != nil {
		return s.stopped
	}
	if o.events != nil {
		s.AttachTrace(o.events)
		defer s.AttachTrace(nil)
	}
	s.contextSwitch(in.inASID())
	in.prepare(s)
	s.completed = false
	in.launch(s, s.kernelDone)

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
			s.emitSnapshot(o)
			for nextSnap <= limit {
				nextSnap += interval
			}
		}
		if o.progress != nil {
			if f := s.eng.Fired(); f-lastProgress >= 1<<16 {
				lastProgress = f
				o.progress(Progress{Cycle: limit, Events: f})
			}
		}
		return true
	}
	s.runWindows(onWindow)
	if err == nil {
		err = in.finishErr()
	}
	if err == nil && !s.completed {
		err = ErrDeadlock
	}
	if err != nil {
		s.stopped = fmt.Errorf("%w: %w", ErrStopped, err)
		return err
	}
	s.io.ExtendSampling()
	s.peakL2Pages()
	return nil
}

// onKernelDone is the GPU's completion callback: the kernel's last warp
// retired.
func (s *System) onKernelDone() {
	s.completed = true
	s.finishCycle = s.eng.Now()
}

// emitSnapshot reads the registry once and feeds every attached consumer.
func (s *System) emitSnapshot(o *options) {
	snap := s.reg.Snapshot(s.eng.Now())
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
	if s.filtersL1() {
		vpn := uint64(vunkey(l.Addr).Page())
		if n := s.filters[cu].Ref(vpn); n != nil && *n > 1 {
			*n--
		} else {
			s.filters[cu].Delete(vpn)
		}
	}
	if s.lifetimes != nil {
		s.lifetimes.L1Data.Add(float64(l.ActiveLifetime()))
	}
	// Write-through L1s never hold dirty data; nothing to write back.
}

// trackL1Fill bumps the invalidation filter when a line enters an L1.
func (s *System) trackL1Fill(cu int, va memory.VAddr) {
	if s.filtersL1() {
		*s.filters[cu].Upsert(uint64(va.Page()))++
	}
}

// onVirtualL2Evict keeps the BT bit vectors inclusive of the L2 and writes
// back dirty lines.
func (s *System) onVirtualL2Evict(l cache.Line) {
	va := vunkey(l.Addr)
	s.fbt.ClearLine(l.ASID, va.Page(), va.LineIndex())
	if l.Dirty {
		s.mem.Access(true, writeback, 0)
	}
	if s.lifetimes != nil {
		s.lifetimes.L2Data.Add(float64(l.ActiveLifetime()))
	}
}

// onPhysicalL2Evict writes back dirty lines.
func (s *System) onPhysicalL2Evict(l cache.Line) {
	if l.Dirty {
		s.mem.Access(true, writeback, 0)
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
				s.mem.Access(true, writeback, 0)
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

// filtersL1 reports whether the per-CU L1 invalidation filters are kept:
// only the virtual hierarchy's FBT evictions read them, and only with
// InvFilter set.
func (s *System) filtersL1() bool { return s.cfg.Kind == VirtualHierarchy && s.cfg.InvFilter }

// invalidateL1 applies an FBT eviction of page lvpn at cu: the CU flushes
// its whole L1 when its invalidation filter matches the page, and always
// without filters.
func (s *System) invalidateL1(cu int, lvpn memory.VPN) {
	if s.filtersL1() {
		if n, _ := s.filters[cu].Get(uint64(lvpn)); n == 0 {
			return
		}
	}
	s.flushL1(cu)
}

func (s *System) flushL1(cu int) {
	if s.l1s[cu].Resident() == 0 {
		return
	}
	s.l1FullFlushes++
	s.l1s[cu].InvalidateAll()
	s.filters[cu].Reset()
}

// writeback completes a dirty line's write to DRAM: nothing waits on it.
var writeback = sim.Func(func() {})

// fault records an exceptional event per the configured policy.
func (s *System) fault(kind string, c *uint64) {
	*c++
	if s.cfg.Faults == PanicOnFault {
		panic("core: fault: " + kind)
	}
}

// sampleL2Pages tracks the distinct-page peak (the paper's ~6000 pages
// observation), sampled every 2048 L2 fills and at the end of every run.
// The L2 maintains its page count, so a sample is O(1); the peak is still
// taken only at these sample points, which define L2DistinctPages.
func (s *System) sampleL2Pages() {
	s.fillsSincePage++
	if s.fillsSincePage < 2048 {
		return
	}
	s.fillsSincePage = 0
	s.peakL2Pages()
}

// peakL2Pages takes one sample of the L2's distinct-page peak.
func (s *System) peakL2Pages() {
	if n := s.l2.DistinctPages(); n > s.l2PagePeak {
		s.l2PagePeak = n
	}
}
