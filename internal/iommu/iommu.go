// Package iommu models the I/O memory management unit that serves address
// translation for every compute unit: a shared TLB behind a
// bandwidth-limited lookup port (the serialization point the paper
// identifies as the primary GPU translation bottleneck), a multi-threaded
// page-table walker with a page-walk cache, and — in the proposal's
// optimized configuration — the FBT consulted as a second-level TLB on
// shared-TLB misses. An interval sampler records lookup arrivals in 1
// microsecond (700-cycle) windows for the access-rate figures.
package iommu

import (
	"fmt"

	"vcache/internal/fbt"
	"vcache/internal/flatmap"
	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/ptw"
	"vcache/internal/sim"
	"vcache/internal/stats"
	"vcache/internal/tlb"
)

// Config describes the IOMMU.
type Config struct {
	// TLB is the shared TLB configuration (512-entry baseline, 16K large).
	TLB tlb.Config
	// LookupsPerCycle bounds shared-TLB bandwidth (paper baseline: 1).
	// 0 = unlimited (the paper's "ideal bandwidth" sensitivity runs).
	LookupsPerCycle int
	// Banks splits the shared TLB port into independently-admitting banks
	// (the §3.2 multi-banked alternative). Each bank admits
	// LookupsPerCycle lookups per cycle; requests map to banks by
	// higher-order VPN bits, so page locality produces bank conflicts —
	// the effect the paper argues limits banked designs.
	Banks int
	// LookupLatency is the shared TLB access time in cycles.
	LookupLatency uint64
	// FBTLatency is the extra cycles for an FBT lookup (paper: 5).
	FBTLatency uint64
	// SampleWindow is the sampler window in cycles (700 = 1us at 700MHz).
	SampleWindow uint64
	// Walker configures the page-table walker pool.
	Walker ptw.Config
}

// DefaultConfig returns the paper's baseline IOMMU: 512-entry shared TLB,
// one lookup per cycle, 16 walker threads, 8KB PWC.
func DefaultConfig() Config {
	return Config{
		TLB:             tlb.Config{Entries: 512, Assoc: 8},
		LookupsPerCycle: 1,
		LookupLatency:   4,
		FBTLatency:      5,
		SampleWindow:    700,
		Walker:          ptw.DefaultConfig(),
	}
}

// Stats aggregates IOMMU activity.
type Stats struct {
	Requests    uint64
	TLBHits     uint64
	TLBMisses   uint64
	FBTHits     uint64 // shared-TLB misses resolved by the FBT (VC With OPT)
	Walks       uint64
	MergedWalks uint64 // misses that joined an outstanding walk (MSHR)
	Faults      uint64
	QueueDelay  uint64 // serialization cycles at the lookup port
	MaxDelay    uint64
}

// Result is a completed translation.
type Result struct {
	PTE   memory.PTE
	Fault bool
}

// Client receives a completed translation (Translate). A client is usually
// the requester's own pooled record, so a translation allocates nothing.
type Client interface {
	Translated(r Result)
}

// ClientFunc adapts a plain callback to Client. Func values are pointers,
// so the conversion does not allocate.
type ClientFunc func(Result)

// Translated runs f.
func (f ClientFunc) Translated(r Result) { f(r) }

// IOMMU is the shared translation unit.
type IOMMU struct {
	eng     *sim.Engine
	cfg     Config
	ports   []*sim.BandwidthServer
	tlb     *tlb.TLB
	walker  *ptw.Walker
	sampler *stats.IntervalSampler
	delays  *stats.Histogram // per-request serialization delay at the port, 1-cycle buckets
	st      Stats

	// SecondLevel, when non-nil, is consulted on shared-TLB misses before
	// walking (the FBT in the paper's VC-with-OPT design).
	SecondLevel *fbt.FBT

	// Trace, if set, receives cycle-stamped "enqueue" (request arrives at
	// the lookup port) and "dequeue" (request granted, TLB consulted)
	// events with the VPN as the argument. Nil means tracing is off.
	Trace *obs.Emitter

	// pending merges concurrent misses to the same page into one walk,
	// like the walker's MSHRs: duplicates attach their clients to the
	// outstanding walk. It is keyed by flatmap.Key(asid, vpn). Lookup
	// records recycle through free, so steady-state translation allocates
	// nothing.
	pending flatmap.Merge[Client]
	free    []*lookup
}

// New builds an IOMMU. The walker must be constructed by the caller so it
// can share the DRAM model with the rest of the system.
func New(eng *sim.Engine, cfg Config, walker *ptw.Walker) *IOMMU {
	if cfg.SampleWindow == 0 {
		cfg.SampleWindow = 700
	}
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	io := &IOMMU{
		eng:     eng,
		cfg:     cfg,
		tlb:     tlb.New(cfg.TLB),
		walker:  walker,
		sampler: stats.NewIntervalSampler(cfg.SampleWindow),
		delays:  stats.NewHistogram(1),
	}
	for i := 0; i < cfg.Banks; i++ {
		io.ports = append(io.ports, sim.NewBandwidthServer(eng, cfg.LookupsPerCycle))
	}
	return io
}

// Reset returns the IOMMU to the state New leaves it in: an empty shared
// TLB, idle lookup ports, no walk outstanding, an empty rate series and
// delay histogram, and zeroed counters. It keeps every table and pool, and
// it leaves the walker, SecondLevel and Trace to the owner.
func (io *IOMMU) Reset() {
	io.tlb.Reset()
	for _, p := range io.ports {
		p.Reset()
	}
	io.sampler.Reset()
	io.delays.Reset()
	io.st = Stats{}
	io.pending.Reset()
}

// TLB exposes the shared TLB (for shootdowns and tests).
func (io *IOMMU) TLB() *tlb.TLB { return io.tlb }

// Sampler exposes the per-window access-rate sampler.
func (io *IOMMU) Sampler() *stats.IntervalSampler { return io.sampler }

// DelayQuantile returns the q-th quantile of per-request serialization
// delay at the lookup port (the distribution behind Figures 4/5). Delays
// are whole cycles counted in 1-cycle buckets, so the quantile is exactly
// the element a sort of every delay would give, at O(largest delay) cost.
func (io *IOMMU) DelayQuantile(q float64) float64 { return io.delays.Quantile(q) }

// Stats returns a copy of the counters, folding in port queueing.
func (io *IOMMU) Stats() Stats {
	s := io.st
	for _, p := range io.ports {
		s.QueueDelay += p.QueueDelay
		if p.MaxDelay > s.MaxDelay {
			s.MaxDelay = p.MaxDelay
		}
	}
	return s
}

// bank maps a VPN to its port. Banked TLBs hash on higher-order address
// bits (low bits select the set within a bank), which is exactly why
// workloads with page-cluster locality conflict.
func (io *IOMMU) bank(vpn memory.VPN) *sim.BandwidthServer {
	if len(io.ports) == 1 {
		return io.ports[0]
	}
	return io.ports[(uint64(vpn)>>6)%uint64(len(io.ports))]
}

// lookup carries one Translate request through the lookup port, the
// shared TLB, the optional FBT and a walk (sim.Handler: the event argument
// is its stage). Lookups live and die on the IOMMU's engine: one returns
// to IOMMU.free before its client runs, or when it merges behind an
// outstanding walk of the same page.
type lookup struct {
	io   *IOMMU
	asid memory.ASID
	vpn  memory.VPN
	c    Client
	ppn  memory.PPN // FBT second-level hit, held across its latency
	perm memory.Perm
}

// Lookup stages (lookup.Handle).
const (
	lookupGranted = iota // the lookup port granted the request: consult the shared TLB
	lookupFBTHit         // an FBT second-level hit's latency elapsed
	lookupFBTMiss        // an FBT miss's latency elapsed: walk
)

// Translate requests a translation of (asid, vpn); c.Translated fires with
// the result after the request is serialized through the lookup port, the
// shared TLB (and optionally the FBT) is consulted, and — on a miss — a
// page-table walk completes.
func (io *IOMMU) Translate(asid memory.ASID, vpn memory.VPN, c Client) {
	io.st.Requests++
	io.sampler.Record(io.eng.Now())
	io.Trace.Emit("enqueue", uint64(vpn))
	slot := io.bank(vpn).Admit()
	io.delays.Add(float64(slot - io.eng.Now()))
	var l *lookup
	if n := len(io.free); n > 0 {
		l = io.free[n-1]
		io.free = io.free[:n-1]
	} else {
		l = &lookup{io: io}
	}
	l.asid, l.vpn, l.c = asid, vpn, c
	io.eng.AtEvent(slot+io.cfg.LookupLatency, l, lookupGranted)
}

// Handle advances the lookup to its next stage (sim.Handler).
func (l *lookup) Handle(stage uint64) {
	io := l.io
	switch stage {
	case lookupGranted:
		io.Trace.Emit("dequeue", uint64(l.vpn))
		if e, ok := io.tlb.Lookup(l.asid, l.vpn); ok {
			io.st.TLBHits++
			io.deliver(l, Result{PTE: memory.PTE{PPN: e.Frame(l.vpn), Perm: e.Perm, Valid: true, Large: e.Large}})
			return
		}
		io.st.TLBMisses++
		if io.SecondLevel != nil {
			if ppn, perm, ok := io.SecondLevel.TranslateVPN(l.asid, l.vpn); ok {
				io.st.FBTHits++
				l.ppn, l.perm = ppn, perm
				io.eng.ScheduleEvent(io.cfg.FBTLatency, l, lookupFBTHit)
				return
			}
			// FBT miss costs its lookup latency before the walk begins.
			io.eng.ScheduleEvent(io.cfg.FBTLatency, l, lookupFBTMiss)
			return
		}
		io.walk(l)
	case lookupFBTHit:
		io.tlb.Insert(l.asid, l.vpn, l.ppn, l.perm)
		io.deliver(l, Result{PTE: memory.PTE{PPN: l.ppn, Perm: l.perm, Valid: true}})
	case lookupFBTMiss:
		io.walk(l)
	}
}

// deliver recycles l, then hands r to its client: the client may issue a
// new Translate that reuses the record.
func (io *IOMMU) deliver(l *lookup, r Result) {
	c := l.c
	io.release(l)
	c.Translated(r)
}

func (io *IOMMU) release(l *lookup) {
	l.c = nil
	io.free = append(io.free, l)
}

// insertTLB installs a walked translation, as a 2MB entry when the walk
// resolved through a large page.
func (io *IOMMU) insertTLB(asid memory.ASID, vpn memory.VPN, pte memory.PTE) {
	if pte.Large {
		bv, bp := memory.LargeBase(vpn, pte.PPN)
		io.tlb.InsertLarge(asid, bv, bp, pte.Perm)
		return
	}
	io.tlb.Insert(asid, vpn, pte.PPN, pte.Perm)
}

// walk resolves a shared-TLB miss: l leads a page-table walk, or its client
// attaches to the outstanding walk of the same page.
func (io *IOMMU) walk(l *lookup) {
	if !io.pending.Lead(flatmap.Key(uint16(l.asid), uint64(l.vpn)), l.c) {
		// A walk for this page is already in flight: l's client attached
		// to it.
		io.st.MergedWalks++
		io.release(l)
		return
	}
	io.st.Walks++
	io.walker.Walk(l.vpn, l)
}

// Walked completes the walk l leads (ptw.Client): install the translation,
// then deliver it to l's client and every client merged behind it.
func (l *lookup) Walked(r ptw.Result) {
	io := l.io
	var res Result
	if r.Fault {
		io.st.Faults++
		res = Result{Fault: true}
	} else {
		io.insertTLB(l.asid, l.vpn, r.PTE)
		res = Result{PTE: r.PTE}
	}
	waiters := io.pending.Done(flatmap.Key(uint16(l.asid), uint64(l.vpn)))
	io.deliver(l, res)
	for _, c := range waiters {
		c.Translated(res)
	}
	io.pending.Recycle(waiters)
}

// Shootdown invalidates (asid, vpn) in the shared TLB.
func (io *IOMMU) Shootdown(asid memory.ASID, vpn memory.VPN) {
	io.tlb.InvalidatePage(asid, vpn)
}

// ShootdownASID invalidates every shared-TLB entry belonging to one
// address space (ASID rollover) as a single message, returning the number
// of entries dropped.
func (io *IOMMU) ShootdownASID(asid memory.ASID) int {
	return io.tlb.InvalidateASID(asid)
}

// ShootdownAll invalidates the entire shared TLB as a single message,
// returning the number of entries dropped.
func (io *IOMMU) ShootdownAll() int {
	return io.tlb.InvalidateAll()
}

// ExtendSampling widens the sampler horizon to the current cycle so
// trailing idle windows count toward rate statistics.
func (io *IOMMU) ExtendSampling() { io.sampler.Extend(io.eng.Now()) }

func (io *IOMMU) String() string {
	return fmt.Sprintf("iommu{tlb: %v, bw: %d/cy, reqs: %d}", io.tlb, io.cfg.LookupsPerCycle, io.st.Requests)
}
