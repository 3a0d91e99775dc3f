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
	BulkCalls   uint64 // TranslateBulk invocations (batched front-end miss sets)
	BulkMisses  uint64 // translations submitted through TranslateBulk
	Faults      uint64
	QueueDelay  uint64 // serialization cycles at the lookup port
	MaxDelay    uint64
}

// Result is a completed translation.
type Result struct {
	PTE   memory.PTE
	Fault bool
}

// IOMMU is the shared translation unit.
type IOMMU struct {
	eng     *sim.Engine
	cfg     Config
	ports   []*sim.BandwidthServer
	tlb     *tlb.TLB
	walker  *ptw.Walker
	sampler *stats.IntervalSampler
	delays  stats.CDF // per-request serialization delay at the port
	st      Stats

	// SecondLevel, when non-nil, is consulted on shared-TLB misses before
	// walking (the FBT in the paper's VC-with-OPT design).
	SecondLevel *fbt.FBT

	// Trace, if set, receives cycle-stamped "enqueue" (request arrives at
	// the lookup port) and "dequeue" (request granted, TLB consulted)
	// events with the VPN as the argument. Nil means tracing is off.
	Trace *obs.Emitter

	// pending merges concurrent misses to the same page into one walk,
	// like the walker's MSHRs: duplicates attach to the outstanding walk.
	// Drained waiter lists recycle through waitPool so merging stays
	// allocation-free at steady state.
	pending  map[pendKey][]func(Result)
	waitPool [][]func(Result)
}

type pendKey struct {
	asid memory.ASID
	vpn  memory.VPN
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
		pending: make(map[pendKey][]func(Result)),
	}
	for i := 0; i < cfg.Banks; i++ {
		io.ports = append(io.ports, sim.NewBandwidthServer(eng, cfg.LookupsPerCycle))
	}
	io.tlb.Clock = eng.Now
	return io
}

// TLB exposes the shared TLB (for shootdowns and tests).
func (io *IOMMU) TLB() *tlb.TLB { return io.tlb }

// Sampler exposes the per-window access-rate sampler.
func (io *IOMMU) Sampler() *stats.IntervalSampler { return io.sampler }

// DelayQuantile returns the q-th quantile of per-request serialization
// delay at the lookup port (the distribution behind Figures 4/5).
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

// Translate requests a translation of (asid, vpn); done fires with the
// result after the request is serialized through the lookup port, the
// shared TLB (and optionally the FBT) is consulted, and — on a miss — a
// page-table walk completes.
func (io *IOMMU) Translate(asid memory.ASID, vpn memory.VPN, done func(Result)) {
	io.st.Requests++
	io.sampler.Record(io.eng.Now())
	io.Trace.Emit("enqueue", uint64(vpn))
	slot := io.bank(vpn).Admit()
	io.delays.Add(float64(slot - io.eng.Now()))
	io.eng.At(slot+io.cfg.LookupLatency, func() {
		io.Trace.Emit("dequeue", uint64(vpn))
		if e, ok := io.tlb.Lookup(asid, vpn); ok {
			io.st.TLBHits++
			done(Result{PTE: memory.PTE{PPN: e.Frame(vpn), Perm: e.Perm, Valid: true, Large: e.Large}})
			return
		}
		io.st.TLBMisses++
		if io.SecondLevel != nil {
			if ppn, perm, ok := io.SecondLevel.TranslateVPN(asid, vpn); ok {
				io.st.FBTHits++
				io.eng.Schedule(io.cfg.FBTLatency, func() {
					io.tlb.Insert(asid, vpn, ppn, perm)
					done(Result{PTE: memory.PTE{PPN: ppn, Perm: perm, Valid: true}})
				})
				return
			}
			// FBT miss costs its lookup latency before the walk begins.
			io.eng.Schedule(io.cfg.FBTLatency, func() { io.walk(asid, vpn, done) })
			return
		}
		io.walk(asid, vpn, done)
	})
}

// TranslateBulk enqueues one warp batch's residual miss set — vpns, already
// deduplicated by the front end's page chunking — in a single call. Each
// page still pays its own lookup-port slot (the bandwidth model is
// unchanged; the batch arrives together but serializes through the shared
// TLB), and concurrent same-page walks merge through the same pending-map
// MSHRs as Translate, so one walk serves every requester of a page. done
// fires once per index with that page's result.
func (io *IOMMU) TranslateBulk(asid memory.ASID, vpns []memory.VPN, done func(i int, r Result)) {
	io.st.BulkCalls++
	io.st.BulkMisses += uint64(len(vpns))
	for i, vpn := range vpns {
		i := i
		io.Translate(asid, vpn, func(r Result) { done(i, r) })
	}
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

func (io *IOMMU) walk(asid memory.ASID, vpn memory.VPN, done func(Result)) {
	k := pendKey{asid, vpn}
	if list, outstanding := io.pending[k]; outstanding {
		// A walk for this page is already in flight: attach to it.
		io.st.MergedWalks++
		if list == nil {
			if n := len(io.waitPool); n > 0 {
				list = io.waitPool[n-1]
				io.waitPool = io.waitPool[:n-1]
			} else {
				list = make([]func(Result), 0, 8)
			}
		}
		io.pending[k] = append(list, done)
		return
	}
	io.pending[k] = nil
	io.st.Walks++
	io.walker.Walk(vpn, func(r ptw.Result) {
		var res Result
		if r.Fault {
			io.st.Faults++
			res = Result{Fault: true}
		} else {
			io.insertTLB(asid, vpn, r.PTE)
			res = Result{PTE: r.PTE}
		}
		waiters := io.pending[k]
		delete(io.pending, k)
		done(res)
		for _, w := range waiters {
			w(res)
		}
		if waiters != nil {
			for i := range waiters {
				waiters[i] = nil
			}
			io.waitPool = append(io.waitPool, waiters[:0])
		}
	})
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
