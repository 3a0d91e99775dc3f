package core

import (
	"context"
	"testing"
	"testing/quick"

	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/trace"
)

// Conservation laws: every coalesced request touches the L1 exactly once,
// every L1 read miss reaches the L2 exactly once, and (for reads) every L2
// miss produces exactly one DRAM fetch or merge. These hold for every
// design and any trace; violating them means requests are lost or
// duplicated somewhere in the flows.

func randomTrace(seed uint64, insts int) *trace.Trace {
	b := trace.NewBuilder("rand", 1, 4, 2)
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < insts; i++ {
		n := int(next()%16) + 1
		addrs := make([]memory.VAddr, n)
		for l := range addrs {
			r := next()
			addrs[l] = memory.VAddr((r%300)*memory.PageSize).Line() + memory.VAddr((r>>32)%32*memory.LineSize)
		}
		if next()%4 == 0 {
			b.Warp().Store(addrs...)
		} else {
			b.Warp().Load(addrs...)
		}
		if next()%16 == 0 {
			b.Barrier()
		}
	}
	return b.Build()
}

func TestRequestConservationProperty(t *testing.T) {
	makers := []func() Config{DesignIdeal, DesignBaseline512, DesignBaselineTwoLevelTLB, DesignVCOpt, designL1OnlyVC32}
	var tlb2Hits uint64
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 120)
		for _, mk := range makers {
			var final obs.Snapshot
			r, err := RunContext(context.Background(), smallCfg(mk()), tr,
				WithMetricsSnapshot(func(s obs.Snapshot) { final = s }))
			if err != nil {
				t.Log(err)
				return false
			}
			// 1. L1 sees every coalesced request exactly once.
			if r.L1.Accesses() != r.GPU.CoalescedReqs {
				t.Logf("%s: L1 accesses %d != coalesced %d", r.Design, r.L1.Accesses(), r.GPU.CoalescedReqs)
				return false
			}
			// 2. L2 sees every L1 read miss plus every store (write-through)
			// at least once; stores that missed re-access the L2 when their
			// line fill lands (one extra access per write miss or merged
			// write waiter).
			wantL2 := r.L1.ReadMisses + r.L1.WriteHits + r.L1.WriteMisses
			if acc := r.L2.Accesses(); acc < wantL2 || acc > wantL2+r.L2.WriteMisses+r.LineMerges {
				t.Logf("%s: L2 accesses %d outside [%d, %d]", r.Design, acc,
					wantL2, wantL2+r.L2.WriteMisses+r.LineMerges)
				return false
			}
			// 3. Every fill was fetched exactly once (no duplicated DRAM
			// fetches for the same outstanding line).
			if r.DRAM.Reads < uint64(r.L2.Fills) {
				t.Logf("%s: DRAM reads %d < L2 fills %d", r.Design, r.DRAM.Reads, r.L2.Fills)
				return false
			}
			if r.Faults != (FaultCounts{}) {
				t.Logf("%s: faults %+v", r.Design, r.Faults)
				return false
			}
			// 4. Every per-CU TLB miss is answered exactly once: by the
			// private second-level TLB, by its own IOMMU request, or by
			// merging behind an outstanding request for the same page.
			// Results has no TLB2 field; the metrics registry does.
			if r.Kind == PhysicalBaseline || r.Kind == L1OnlyVirtual {
				hits2 := uint64(final.Sum("tlb2.cu", ".hits"))
				tlb2Hits += hits2
				if r.PerCUTLB.Misses != hits2+r.IOMMU.Requests+r.TLBMerges {
					t.Logf("%s: per-CU TLB misses %d != TLB2 hits %d + IOMMU requests %d + merges %d",
						r.Design, r.PerCUTLB.Misses, hits2, r.IOMMU.Requests, r.TLBMerges)
					return false
				}
			}
			// 5. Every message over a NoC route is counted on it once. A
			// per-CU TLB miss sent to the IOMMU crosses cu-iommu out and
			// back. On cu-l2, an L1 read miss crosses out and its data
			// back, and a store crosses out once. An FBT eviction would
			// add one L1 invalidation per CU; these traces evict nothing.
			// Inside the backend, l2-iommu carries each virtual L2 miss
			// that leads its line to the IOMMU, and each synonym replay
			// back to the L2. Results has no NoC counts; the metrics
			// registry does.
			if r.FBT.Evictions != 0 {
				t.Logf("%s: %d FBT evictions; law 5 assumes none", r.Design, r.FBT.Evictions)
				return false
			}
			var wantIOMMU, wantL2IOMMU uint64
			switch r.Kind {
			case PhysicalBaseline, L1OnlyVirtual:
				wantIOMMU = 2 * r.IOMMU.Requests
			case VirtualHierarchy:
				wantL2IOMMU = r.IOMMU.Requests + r.SynonymReplays
			}
			wantL2 = 2*r.L1.ReadMisses + r.L1.WriteHits + r.L1.WriteMisses
			for _, law := range []struct {
				name string
				want uint64
			}{{"noc.cu-iommu.messages", wantIOMMU}, {"noc.cu-l2.messages", wantL2}, {"noc.l2-iommu.messages", wantL2IOMMU}} {
				if got, ok := final.Value(law.name); !ok || uint64(got) != law.want {
					t.Logf("%s: %s = %v (present %v), want %d", r.Design, law.name, got, ok, law.want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	if tlb2Hits == 0 {
		t.Fatal("no second-level TLB hits: law 4 never exercised the private TLB2")
	}
}

// TestTranslationConservation: in the baseline, per-CU TLB misses that
// were not merged equal IOMMU requests; in the VC, L2 misses that were not
// merged equal IOMMU requests.
func TestTranslationConservation(t *testing.T) {
	tr := randomTrace(99, 300)

	base := MustRun(smallCfg(DesignBaseline512()), tr)
	if base.PerCUTLB.Misses != base.IOMMU.Requests+base.TLBMerges {
		t.Fatalf("baseline: TLB misses %d != IOMMU %d + merges %d",
			base.PerCUTLB.Misses, base.IOMMU.Requests, base.TLBMerges)
	}

	vc := MustRun(smallCfg(DesignVCOpt()), tr)
	if vc.L2.Misses() != vc.IOMMU.Requests+vc.LineMerges {
		t.Fatalf("VC: L2 misses %d != IOMMU %d + line merges %d",
			vc.L2.Misses(), vc.IOMMU.Requests, vc.LineMerges)
	}
}

// TestCycleOrderingAcrossDesigns: for any trace, ideal <= VC <= huge
// margin of baseline is not guaranteed pointwise, but ideal must always be
// the fastest design (it strictly removes work).
func TestIdealIsLowerBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 100)
		ideal := MustRun(smallCfg(DesignIdeal()), tr)
		for _, mk := range []func() Config{DesignBaseline512, DesignVCOpt, designL1OnlyVC32} {
			if MustRun(smallCfg(mk()), tr).Cycles < ideal.Cycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
