package core

import (
	"fmt"

	"vcache/internal/memory"
	"vcache/internal/noc"
	"vcache/internal/sim"
)

// The partitioned event schedule — the only schedule a System runs.
//
// New splits a system into NumCUs+1 partitions — one per CU front end
// (warps, coalescer, L1, per-CU TLBs, invalidation filter, remap table)
// plus one shared back end (L2 and banks, IOMMU, FBT, page walker, DRAM,
// the NoC servers, and the GPU's warp-global coordinator) — each with its
// own calendar-queue engine, driven through conservative cycle windows by
// sim.Partitioned. The window width (lookahead) is the minimum latency of
// the two routes that cross the partition boundary, CU<->L2 and
// CU<->IOMMU, so no cross-partition message can land inside the window it
// was sent from. The partitions live as long as the System: each launch
// first advances every CU engine to the backend clock, so a kernel that
// follows earlier runs starts its front end where the back end stands.
//
// Cross-partition traffic goes through sendToBackend/sendToCU, which count
// each message on its boundary Link as they send it. The schedule is a
// pure function of the configuration.
type intraState struct {
	part    *sim.Partitioned
	engines []*sim.Engine // engines[0] == System.eng (the shared backend)

	// links holds the two boundary routes' Links, indexed like
	// intraRoutes, resolved once at partition time: their latencies time
	// the crossings, and their counters count them.
	links [2]*noc.Link

	// running is true while the windows execute. Between runs there is no
	// window to carry a message, so backend operations that reach CU
	// state (a shootdown's L1 flushes) apply it before they return.
	running bool
	ran     bool // at least one run started
}

// intraRoutes are the partition-boundary routes, indexed by routeL2 and
// routeIOMMU.
var intraRoutes = [2]noc.Route{noc.CUToL2, noc.CUToIOMMU}

const (
	routeL2    = 0 // noc.CUToL2: the GPU network between the CUs and the L2
	routeIOMMU = 1 // noc.CUToIOMMU: per-CU TLB misses to the IOMMU
)

// IntraInfo describes the partitioned engine (System.IntraInfo).
type IntraInfo struct {
	Partitions int    // partition count (CUs + shared backend)
	Window     uint64 // conservative window width in cycles (the lookahead)
	Windows    uint64 // synchronization windows executed
	Crossings  uint64 // cross-partition messages delivered
	Events     uint64 // events fired across all partition engines
}

// IntraInfo reports the partitioned-engine statistics, accumulated over
// every run of the System; ok is false before its first run.
func (s *System) IntraInfo() (info IntraInfo, ok bool) {
	st := &s.intra
	return IntraInfo{
		Partitions: len(st.engines),
		Window:     st.part.Lookahead(),
		Windows:    st.part.Windows(),
		Crossings:  st.part.Crossings(),
		Events:     s.totalFired(),
	}, st.ran
}

// partition builds the System's engines — the backend engine plus one per
// CU front end — and the window runner with the NoC-derived lookahead.
// Called once, from New, after the network and before any component
// binds a clock.
func (s *System) partition() {
	n := s.cfg.GPU.NumCUs + 1
	engines := make([]*sim.Engine, n)
	engines[0] = s.eng
	for i := 1; i < n; i++ {
		engines[i] = sim.New()
	}
	s.intra = intraState{
		part:    sim.NewPartitioned(engines, s.net.MinLatency(intraRoutes[:]...)),
		engines: engines,
	}
	for i, r := range intraRoutes {
		s.intra.links[i] = s.net.Link(r)
	}
}

// startRun readies the partitions for a launch. Every CU engine catches
// up to the backend clock: a CU engine never moves backwards, and one left
// behind by an earlier kernel would start this kernel's front end in the
// back end's past, compressing its service time.
func (s *System) startRun() {
	now := s.eng.Now()
	for _, e := range s.intra.engines[1:] {
		e.RunUntil(now)
	}
	s.intra.ran = true
}

// runWindows executes the launched kernel's windows to completion (or
// until onWindow stops them).
func (s *System) runWindows(onWindow func(limit uint64) bool) {
	s.intra.running = true
	defer func() { s.intra.running = false }()
	s.intra.part.Run(onWindow)
}

// cuEng returns the engine that owns cu's front-end events.
func (s *System) cuEng(cu int) *sim.Engine { return s.intra.engines[cu+1] }

// sendToBackend delivers h.Handle(arg) on the backend partition after the
// boundary route's latency (routeL2 or routeIOMMU). Must be called from
// the CU's own partition.
func (s *System) sendToBackend(cu, route int, h sim.Handler, arg uint64) {
	l := s.intra.links[route]
	l.Messages++
	s.intra.part.SendEvent(cu+1, 0, l.Latency, h, arg)
}

// sendToCU delivers h.Handle(arg) on cu's partition after the boundary
// route's latency. Must be called from the backend partition.
func (s *System) sendToCU(cu, route int, h sim.Handler, arg uint64) {
	l := s.intra.links[route]
	l.Messages++
	s.intra.part.SendEvent(0, cu+1, l.Latency, h, arg)
}

// cuArgBits is the width of the CU index packed into a backend -> CU
// event argument; the leading VPN fills the bits above it.
const cuArgBits = 20

// l1Inval is the backend -> CU half of an FBT eviction (sim.Handler): the
// argument packs the CU and the evicted entry's leading VPN, so the
// message allocates nothing.
type l1Inval System

func (h *l1Inval) Handle(arg uint64) {
	(*System)(h).invalidateL1(int(arg&(1<<cuArgBits-1)), memory.VPN(arg>>cuArgBits))
}

// sendL1Inval delivers an FBT eviction's L1 invalidation to cu over the
// GPU network.
func (s *System) sendL1Inval(cu int, lvpn memory.VPN) {
	s.sendToCU(cu, routeL2, (*l1Inval)(s), uint64(lvpn)<<cuArgBits|uint64(cu))
}

// gpuFabric places the GPU front end on the System's partitions: CU i on
// engine i+1, the coordinator on the backend, and coordination messages
// over the CU<->L2 network latency (not counted as NoC data messages).
type gpuFabric System

func (f *gpuFabric) CUEngine(cu int) *sim.Engine { return f.intra.engines[cu+1] }
func (f *gpuFabric) CoordEngine() *sim.Engine    { return f.eng }

func (f *gpuFabric) ToCoord(cu int, h sim.Handler, arg uint64) {
	f.intra.part.SendEvent(cu+1, 0, f.intra.links[routeL2].Latency, h, arg)
}

func (f *gpuFabric) ToCU(cu int, h sim.Handler, arg uint64) {
	f.intra.part.SendEvent(0, cu+1, f.intra.links[routeL2].Latency, h, arg)
}

// registerPartitionGauges exports the window runner's counters.
func (s *System) registerPartitionGauges() {
	st := &s.intra
	s.reg.Gauge("sim.windows", func() float64 { return float64(st.part.Windows()) })
	s.reg.Gauge("sim.mailbox.crossings", func() float64 { return float64(st.part.Crossings()) })
	for i, e := range st.engines {
		e := e
		s.reg.Gauge(fmt.Sprintf("sim.partition.p%d.fired", i), func() float64 { return float64(e.Fired()) })
	}
}
