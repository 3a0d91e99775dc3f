package gpu

import "vcache/internal/obs"

// Observe registers the GPU front-end counters with an observability
// scope. Counters are kept per CU and summed at snapshot time.
func (g *GPU) Observe(sc obs.Scope) {
	sum := func(f func(*Stats) *uint64) func() float64 {
		return func() float64 {
			var t uint64
			for _, c := range g.cus {
				t += *f(&c.st)
			}
			return float64(t)
		}
	}
	sc.Gauge("instructions", sum(func(s *Stats) *uint64 { return &s.Instructions }))
	sc.Gauge("mem_insts", sum(func(s *Stats) *uint64 { return &s.MemInsts }))
	sc.Gauge("lane_accesses", sum(func(s *Stats) *uint64 { return &s.LaneAccesses }))
	sc.Gauge("coalesced_reqs", sum(func(s *Stats) *uint64 { return &s.CoalescedReqs }))
	sc.Gauge("scratch_ops", sum(func(s *Stats) *uint64 { return &s.ScratchOps }))
	sc.Gauge("compute_cycles", sum(func(s *Stats) *uint64 { return &s.ComputeCycles }))
	sc.Gauge("barriers", sum(func(s *Stats) *uint64 { return &s.Barriers }))
	sc.Gauge("live_warps", func() float64 { return float64(g.liveWarps) })
}
