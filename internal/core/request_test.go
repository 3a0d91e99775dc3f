package core

import (
	"runtime"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

// TestRequestPathAllocs pins the allocation cost of whole runs at under
// 0.1 allocations per coalesced line, twice per design. The first run on a
// fresh System pays for growing its request records, lookup records,
// waiter lists and engine node pools, which grow geometrically, so it
// stays under the bound too. Once they have warmed up, carrying a line
// through any design's memory path allocates nothing, so a second run of
// the same trace on the same System stays under it as well. The trace
// spans more pages than the per-CU TLBs and the L2 hold, so the second run
// still misses to the IOMMU and, in the baseline, still walks.
//
// A second trace makes every other instruction a store, so requests also
// complete on the backend. Its warm second run is bounded the same way.
// Its first run is only logged: stores do not block their warps, so most
// store lines are in flight at once and the pools grow to that peak.
func TestRequestPathAllocs(t *testing.T) {
	loads := divergentTrace("allocs", 1500, 3000)
	stores := divergentTraceMix("allocs-stores", 1500, 3000, true)
	for _, name := range []string{"ideal", "baseline-512", "vc-opt", "vc-opt-dsr", "l1-only-vc-32"} {
		t.Run(name, func(t *testing.T) {
			cfg, ok := DesignByName(name)
			if !ok {
				t.Fatalf("unknown design %q", name)
			}
			// perLine runs tr on sys and returns the run's results and its
			// allocations per line issued since the previous run.
			perLine := func(sys *System, tr *trace.Trace, run string, since uint64) (Results, float64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res := sys.Run(tr)
				runtime.ReadMemStats(&after)
				lines := res.GPU.CoalescedReqs - since
				if lines == 0 {
					t.Fatalf("%s issued no lines", run)
				}
				n := float64(after.Mallocs-before.Mallocs) / float64(lines)
				t.Logf("%s: %d lines, %.3f allocs/line", run, lines, n)
				return res, n
			}
			bound := func(run string, n float64) {
				if n > 0.1 {
					t.Errorf("%s allocates %.3f objects per line, want <= 0.1", run, n)
				}
			}

			sys := MustNew(smallCfg(cfg))
			first, n := perLine(sys, loads, "first run on a fresh System", 0)
			bound("first run on a fresh System", n)
			second, n := perLine(sys, loads, "second run", first.GPU.CoalescedReqs)
			bound("second run", n)
			if cfg.Kind != IdealMMU && second.IOMMU.Requests == first.IOMMU.Requests {
				t.Error("second run sent no IOMMU requests: the trace no longer exercises translation")
			}
			if name == "baseline-512" && second.IOMMU.Walks == first.IOMMU.Walks {
				t.Error("second run walked no page tables")
			}

			sys = MustNew(smallCfg(cfg))
			first, _ = perLine(sys, stores, "stores: first run on a fresh System", 0)
			if first.L1.WriteHits+first.L1.WriteMisses == 0 {
				t.Fatal("the store trace issued no stores")
			}
			_, n = perLine(sys, stores, "stores: second run", first.GPU.CoalescedReqs)
			bound("stores: second run", n)
		})
	}
}

// TestMergedAccessKeepsItsIntent: a load and a store to the same line of a
// read-only page, issued one cycle apart by two warps of one CU, merge
// into one outstanding miss (per-CU TLB miss or L2 line fill). Each is
// still checked against its own intent, so exactly the store faults,
// whichever comes first.
func TestMergedAccessKeepsItsIntent(t *testing.T) {
	const va = memory.VAddr(0x40000)
	for _, d := range Designs {
		for _, storeFirst := range []bool{false, true} {
			order := "load-then-store"
			if storeFirst {
				order = "store-then-load"
			}
			t.Run(d.Name+"/"+order, func(t *testing.T) {
				sys := MustNew(d.New())
				sys.Space().EnsureMapped(va)
				if !sys.Space().Protect(va, memory.PermRead) {
					t.Fatal("Protect failed")
				}
				b := trace.NewBuilder("intent", 1, 1, 2)
				first, second := b.Warp(), b.Warp()
				if storeFirst {
					first.Store(va)
					second.Compute(1).Load(va)
				} else {
					first.Load(va)
					second.Compute(1).Store(va)
				}
				res := sys.Run(b.Build())
				if res.Faults.PermFaults != 1 || res.Faults.PageFaults != 0 {
					t.Errorf("faults = %+v, want exactly 1 PermFault", res.Faults)
				}
			})
		}
	}
}
