package experiments

import (
	"testing"

	"vcache/internal/core"
	"vcache/internal/memory"
	"vcache/internal/workloads"
)

// BenchmarkChurn is the flush-dominated microbench behind the epoch
// invalidation scheme: each iteration populates one tenant's footprint
// (shared-TLB and per-CU TLB entries, L2 lines) untimed, then times the
// GPU-wide ASID retirement and the re-map of the fresh slot: its address
// space (the retired one, recycled), the shared churn pages and one
// kernel's private pages. Each retirement is a generation bump plus
// aggregate accounting, independent of structure capacity (the L2 alone
// is 16K lines against a 128-line footprint). The O(footprint) residue is
// the amortized stale-map compaction, the L2 settling the tenant's page
// counts (one map entry per page it held, 4 here, so DistinctPages stays
// O(1)), and the frames Release frees and the re-map takes back. This is
// the per-rollover cost the tenant-churn figure pays; once every slot has
// rolled over it allocates nothing.
func BenchmarkChurn(b *testing.B) {
	const (
		slots  = 64  // ASID rotation depth
		pages  = 32  // translations installed per rollover (one churn kernel)
		lines  = 128 // L2 lines filled per rollover
		shared = 8   // read-only pages every fresh slot maps
	)
	cfg := core.DesignVCOptDSR()
	cfg.GPU.NumCUs = 4
	sys := core.MustNew(cfg)
	stlb := sys.IOMMU().TLB()
	frames := make([]memory.PPN, shared)
	for i := range frames {
		frames[i] = sys.Frames().Alloc()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		asid := memory.ASID(1 + i%slots)
		base := uint64(i%slots) * pages
		for v := uint64(0); v < pages; v++ {
			stlb.Insert(asid, memory.VPN(base+v), memory.PPN(v+1), memory.PermRead)
			sys.PerCUTLB(i%4).Insert(asid, memory.VPN(base+v), memory.PPN(v+1), memory.PermRead)
		}
		lbase := uint64(i%slots) * lines * memory.LineSize
		for l := uint64(0); l < lines; l++ {
			sys.L2().Fill(lbase+l*memory.LineSize, memory.PermRead, asid, false)
		}
		b.StartTimer()
		sys.RetireASID(asid)
		sp := sys.SpaceFor(asid)
		for j, ppn := range frames {
			sp.MapFrame(workloads.ChurnSharedBase+memory.VAddr(j)*memory.PageSize, ppn, memory.PermRead)
		}
		for v := uint64(0); v < pages; v++ {
			sp.EnsureMapped(memory.VPN(base + v).Base())
		}
	}
}

// BenchmarkChurnReplay times RunChurn over the tenant-churn plan vcbench
// replays (the default churn scenario at 480 launches) on baseline-512 and
// vc-opt-dsr. One op is one replay on each design; lines/s counts the
// coalesced lines both replays issue.
func BenchmarkChurnReplay(b *testing.B) {
	p := workloads.DefaultChurnParams()
	p.Launches = 480
	pl := workloads.BuildChurnPlan(p)
	var lines uint64
	for _, l := range pl.Launches {
		lines += pl.KernelTrace(l).Summarize().CoalescedLines
	}
	designs := []core.Config{core.DesignBaseline512(), core.DesignVCOptDSR()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range designs {
			RunChurn(cfg, p)
		}
	}
	b.ReportMetric(float64(uint64(b.N*len(designs))*lines)/b.Elapsed().Seconds(), "lines/s")
}
