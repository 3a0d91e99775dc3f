package core

import (
	"testing"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

// Golden timing tests: tiny hand-built traces with exact expected cycle
// counts, derived from the documented latency composition. They pin the
// simulator's timing model — any change to latencies, queueing, or request
// flows that alters end-to-end timing must update these deliberately.
//
// Results.Cycles is the cycle the GPU's coordinator (on the backend
// partition) learns that the last warp retired: the warp's last
// instruction completes on its CU, and the retirement message then
// crosses the CU->L2 network to the coordinator. Every derivation below
// therefore ends with that hop, retire = CUToL2 (10).

func goldenCfg(kind Config) Config {
	kind.GPU.NumCUs = 1
	return kind
}

func oneLoad(va memory.VAddr) *trace.Trace {
	b := trace.NewBuilder("golden", 1, 1, 1)
	b.Warp().Load(va)
	return b.Build()
}

// Ideal MMU, cold load:
//
//	L1 lookup (1) + CU->L2 (10) + bank (20) + DRAM (160) + L2->CU (10)
//	= 201, + retire (10) = 211
func TestGoldenIdealColdLoad(t *testing.T) {
	r := MustRun(goldenCfg(DesignIdeal()), oneLoad(0x4000))
	if r.Cycles != 211 {
		t.Fatalf("cold ideal load = %d cycles, want 211", r.Cycles)
	}
}

// Ideal MMU, L1 hit after warmup: second load costs just the L1 latency.
func TestGoldenIdealL1Hit(t *testing.T) {
	b := trace.NewBuilder("golden", 1, 1, 1)
	b.Warp().Load(0x4000).Load(0x4000)
	r := MustRun(goldenCfg(DesignIdeal()), b.Build())
	if r.Cycles != 212 {
		t.Fatalf("cold+hit = %d cycles, want 212 (201 + 1 L1 hit + 10 retire)", r.Cycles)
	}
}

// Baseline, cold load: per-CU TLB (1) + miss path [CU->IOMMU (50) + port
// (0 queue) + shared TLB lookup (4) + walk (4 uncached PT reads at DRAM
// latency 160 = 640) + IOMMU->CU (50)] + the ideal path (201) = 946, +
// retire (10) = 956.
func TestGoldenBaselineColdLoad(t *testing.T) {
	r := MustRun(goldenCfg(DesignBaseline512()), oneLoad(0x4000))
	if r.Cycles != 956 {
		t.Fatalf("cold baseline load = %d cycles, want 956", r.Cycles)
	}
	if r.IOMMU.Walks != 1 || r.PerCUTLB.Misses != 1 {
		t.Fatalf("stats: %d walks, %d TLB misses", r.IOMMU.Walks, r.PerCUTLB.Misses)
	}
}

// Baseline, warm TLB: per-CU TLB hit adds only its 1-cycle lookup to the
// ideal path.
func TestGoldenBaselineWarmTLB(t *testing.T) {
	b := trace.NewBuilder("golden", 1, 1, 1)
	b.Warp().Load(0x4000).Load(0x4080) // same page, different line
	r := MustRun(goldenCfg(DesignBaseline512()), b.Build())
	// 946 (cold) + [1 TLB + 1 L1 + 10 + 20 + 160 + 10] (second line, TLB
	// warm, L2 miss) + retire (10) = 946 + 202 + 10 = 1158.
	if r.Cycles != 1158 {
		t.Fatalf("warm-TLB load = %d cycles, want 1158", r.Cycles)
	}
}

// Virtual hierarchy, cold load: L1 (1) + CU->L2 (10) + bank (20) +
// L2->IOMMU (10) + port+lookup (4) + FBT miss (5) + walk (640) + FBT
// check (5) + DRAM (160) + L2->CU (10) + 0 (fill+deliver same cycle) = 865,
// + retire (10) = 875.
func TestGoldenVCColdLoad(t *testing.T) {
	r := MustRun(goldenCfg(DesignVCOpt()), oneLoad(0x4000))
	if r.Cycles != 875 {
		t.Fatalf("cold VC load = %d cycles, want 875", r.Cycles)
	}
	if r.FBT.Allocations != 1 {
		t.Fatalf("FBT allocations = %d", r.FBT.Allocations)
	}
}

// Virtual hierarchy, warm caches: an L1 virtual hit costs 1 cycle and no
// translation at all — the paper's whole point.
func TestGoldenVCL1Hit(t *testing.T) {
	b := trace.NewBuilder("golden", 1, 1, 1)
	b.Warp().Load(0x4000).Load(0x4000)
	r := MustRun(goldenCfg(DesignVCOpt()), b.Build())
	if r.Cycles != 876 {
		t.Fatalf("cold+hit VC = %d cycles, want 876 (865 + 1 L1 hit + 10 retire)", r.Cycles)
	}
	if r.IOMMU.Requests != 1 {
		t.Fatalf("second load consulted the IOMMU: %d requests", r.IOMMU.Requests)
	}
}

// Virtual hierarchy, L2 hit from another CU's fill: the second CU's read
// misses its L1, hits the shared virtual L2, and never translates.
func TestGoldenVCL2HitNoTranslation(t *testing.T) {
	cfg := DesignVCOpt()
	cfg.GPU.NumCUs = 2
	b := trace.NewBuilder("golden", 1, 2, 1)
	w0 := b.Warp() // CU0
	w1 := b.Warp() // CU1
	w0.Load(0x4000)
	w1.Compute(2000).Load(0x4000) // arrives after CU0's fill completes
	r := MustRun(cfg, b.Build())
	if r.IOMMU.Requests != 1 {
		t.Fatalf("IOMMU requests = %d, want 1 (L2 hit filters the second)", r.IOMMU.Requests)
	}
	// Second access: 1 (L1 miss) + 10 + 20 (bank) + 10 (back) = 41 after
	// the barrier release cycle.
	if r.L2.ReadHits != 1 {
		t.Fatalf("L2 read hits = %d, want 1", r.L2.ReadHits)
	}
}

// Scratchpad ops never touch the memory system in any design.
func TestGoldenScratchOnly(t *testing.T) {
	b := trace.NewBuilder("golden", 1, 1, 1)
	b.Warp().ScratchLoad(0).ScratchStore(0) // default latency 4 each
	for _, cfg := range []Config{goldenCfg(DesignIdeal()), goldenCfg(DesignBaseline512()), goldenCfg(DesignVCOpt())} {
		r := MustRun(cfg, b.Build())
		if r.Cycles != 18 {
			t.Fatalf("%s: scratch-only = %d cycles, want 18 (4 + 4 + 10 retire)", cfg.Name, r.Cycles)
		}
		if r.IOMMU.Requests != 0 || r.DRAM.Accesses() != 0 {
			t.Fatalf("%s: scratch ops reached the memory system", cfg.Name)
		}
	}
}
