package experiments

import (
	"testing"

	"vcache/internal/core"
	"vcache/internal/memory"
)

// BenchmarkChurn is the flush-dominated microbench behind the epoch
// invalidation scheme: each iteration populates one tenant's footprint
// (shared-TLB and per-CU TLB entries, L2 lines) untimed, then times the
// GPU-wide ASID retirement alone. Each retirement is a generation bump
// plus aggregate accounting — the only O(footprint) residue is the
// amortized stale-map compaction, independent of structure capacity (the
// L2 alone is 32K slots against a 128-line footprint). This is the
// per-rollover cost the tenant-churn figure pays.
func BenchmarkChurn(b *testing.B) {
	const (
		slots = 64  // ASID rotation depth
		pages = 32  // translations installed per rollover (one churn kernel)
		lines = 128 // L2 lines filled per rollover
	)
	cfg := core.DesignVCOptDSR()
	cfg.GPU.NumCUs = 4
	sys := core.MustNew(cfg)
	stlb := sys.IOMMU().TLB()
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
	}
}
