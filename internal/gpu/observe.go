package gpu

import "vcache/internal/obs"

// Observe registers the GPU front-end counters with an observability
// scope.
func (g *GPU) Observe(sc obs.Scope) {
	sc.Counter("instructions", &g.st.Instructions)
	sc.Counter("mem_insts", &g.st.MemInsts)
	sc.Counter("lane_accesses", &g.st.LaneAccesses)
	sc.Counter("coalesced_reqs", &g.st.CoalescedReqs)
	sc.Counter("scratch_ops", &g.st.ScratchOps)
	sc.Counter("compute_cycles", &g.st.ComputeCycles)
	sc.Counter("barriers", &g.st.Barriers)
	sc.Gauge("live_warps", func() float64 { return float64(g.liveWarps) })
}
