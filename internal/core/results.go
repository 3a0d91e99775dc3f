package core

import (
	"context"
	"fmt"

	"vcache/internal/cache"
	"vcache/internal/dram"
	"vcache/internal/fbt"
	"vcache/internal/gpu"
	"vcache/internal/iommu"
	"vcache/internal/stats"
	"vcache/internal/tlb"
	"vcache/internal/trace"
)

// Results captures everything the evaluation figures need from one run.
type Results struct {
	Workload string
	Design   string
	Kind     MMUKind

	// Cycles is the GPU execution time (cycle at which the last warp
	// retired), the paper's reported metric.
	Cycles uint64

	GPU      gpu.Stats
	PerCUTLB tlb.Stats // summed over CUs
	IOMMU    iommu.Stats
	// IOMMURate summarizes shared-TLB lookup arrivals per cycle over 1us
	// windows (Figures 3 and 8).
	IOMMURate stats.Summary
	// IOMMUFracAbove1 is the fraction of windows with >1 access/cycle.
	IOMMUFracAbove1 float64
	// IOMMUSamples is the full per-window access-rate series (1us
	// windows), for timelines and custom analyses.
	IOMMUSamples []float64
	// IOMMUDelayP50/P95/P99 are per-request serialization-delay quantiles
	// at the shared-TLB port, in cycles, over every request since the
	// System was built. They are exact: delays are whole cycles kept in a
	// 1-cycle counting histogram, read with stats.CDF's rank rule.
	IOMMUDelayP50 float64
	IOMMUDelayP95 float64
	IOMMUDelayP99 float64

	L1   cache.Stats // summed over CUs
	L2   cache.Stats
	FBT  fbt.Stats
	DRAM dram.Stats

	Probe  ProbeBreakdown
	Faults FaultCounts

	SynonymReplays uint64
	RemapHits      uint64 // synonym accesses redirected by DSR tables
	L1FullFlushes  uint64
	FBTInvalLines  uint64
	TLBMerges      uint64 // per-CU TLB misses merged into outstanding requests
	LineMerges     uint64 // cache misses merged into outstanding line fills
	// L2DistinctPages is the peak count of distinct 4KB pages with data
	// resident in the L2 (the paper reports ~6000), sampled every 2048 L2
	// fills and at the end of every run. The L2 maintains the count as
	// lines come and go, so each sample is O(1).
	L2DistinctPages int

	// Lifetimes is the System's cumulative lifetime record (TrackLifetimes),
	// shared by every Results the System returns until it is Reset: a
	// later run on the same System adds to it, and Reset starts a new one.
	Lifetimes *Lifetimes
}

// PerCUTLBMissRatio returns the aggregate per-CU TLB miss ratio.
func (r Results) PerCUTLBMissRatio() float64 { return r.PerCUTLB.MissRatio() }

// RelativeTime returns r.Cycles / base.Cycles (Figure 4/9's metric:
// execution time relative to an ideal MMU; closer to 1.0 is better when
// base is IDEAL).
func (r Results) RelativeTime(base Results) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// SpeedupOver returns base.Cycles / r.Cycles (Figures 10/11's metric).
func (r Results) SpeedupOver(base Results) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

func (r Results) String() string {
	return fmt.Sprintf("%s/%s: %d cycles, per-CU TLB miss %.1f%%, IOMMU %.3f acc/cy",
		r.Workload, r.Design, r.Cycles, 100*r.PerCUTLBMissRatio(), r.IOMMURate.Mean)
}

// results assembles the Results snapshot after a run. It only reads the
// System: the run's epilogue (execute) took the last samples.
func (s *System) results(workload string) Results {
	r := Results{
		Workload: workload,
		Design:   s.cfg.Name,
		Kind:     s.cfg.Kind,
		Cycles:   s.finishCycle,
		GPU:      s.gpu.Stats(),
		IOMMU:    s.io.Stats(),
		DRAM:     s.mem.Stats(),
		Probe:    s.probe,
		Faults:   s.faults,

		SynonymReplays: s.synonymReplays,
		RemapHits:      s.remapHits,
		L1FullFlushes:  s.l1FullFlushes,
		FBTInvalLines:  s.fbtInvalLines,
		TLBMerges:      s.tlbMerges,
		LineMerges:     s.lineMerges,
		Lifetimes:      s.lifetimes,
	}
	// The rate series is the one O(windows) step: Results carries it whole,
	// and the summary's StdDev is two-pass over it.
	r.IOMMUSamples = s.io.Sampler().Samples()
	r.IOMMURate = stats.Summarize(r.IOMMUSamples)
	r.IOMMUFracAbove1 = stats.FractionAbove(r.IOMMUSamples, 1)
	r.IOMMUDelayP50 = s.io.DelayQuantile(0.50)
	r.IOMMUDelayP95 = s.io.DelayQuantile(0.95)
	r.IOMMUDelayP99 = s.io.DelayQuantile(0.99)
	for _, t := range s.cuTLBs {
		st := t.Stats()
		r.PerCUTLB.Hits += st.Hits
		r.PerCUTLB.Misses += st.Misses
		r.PerCUTLB.Inserts += st.Inserts
		r.PerCUTLB.Evictions += st.Evictions
		r.PerCUTLB.Shootdowns += st.Shootdowns
	}
	for _, c := range s.l1s {
		st := c.Stats()
		r.L1.ReadHits += st.ReadHits
		r.L1.ReadMisses += st.ReadMisses
		r.L1.WriteHits += st.WriteHits
		r.L1.WriteMisses += st.WriteMisses
		r.L1.Fills += st.Fills
		r.L1.Evictions += st.Evictions
		r.L1.Invalidated += st.Invalidated
	}
	r.L2 = s.l2.Stats()
	if s.fbt != nil {
		r.FBT = s.fbt.Stats()
	}
	r.L2DistinctPages = s.l2PagePeak
	return r
}

// Run is the package-level convenience: assemble a system for cfg and run
// tr to completion. An invalid configuration returns a *ConfigError.
func Run(cfg Config, tr *trace.Trace) (Results, error) {
	s, err := New(cfg)
	if err != nil {
		return Results{}, err
	}
	return s.RunContext(context.Background(), tr)
}

// MustRun is Run for known-good configurations; it panics on error (the
// pre-redesign Run behaviour, kept for tests and the vcache facade).
func MustRun(cfg Config, tr *trace.Trace) Results {
	res, err := Run(cfg, tr)
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext assembles a system for cfg and runs tr under ctx with the
// given observability options (see Option).
func RunContext(ctx context.Context, cfg Config, tr *trace.Trace, opts ...Option) (Results, error) {
	s, err := New(cfg)
	if err != nil {
		return Results{}, err
	}
	return s.RunContext(ctx, tr, opts...)
}
