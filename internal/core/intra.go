package core

import (
	"vcache/internal/memory"
	"vcache/internal/noc"
	"vcache/internal/sim"
)

// The partitioned event schedule — the only schedule a System runs.
//
// New splits a system into NumCUs+1 partitions — one per CU front end
// (warps, coalescer, L1, per-CU TLBs, invalidation filter, remap table)
// plus one shared back end (L2 and banks, IOMMU, FBT, page walker, DRAM,
// the NoC servers, and the GPU's warp-global coordinator). Every
// partition's events run on the System's one engine, in cycle order; a
// partition is kept only as the source of the messages that cross the
// boundary. sim.Partitioned delivers those messages at conservative
// window barriers. The window width (lookahead) is the minimum latency of
// the two routes that cross the partition boundary, CU<->L2 and
// CU<->IOMMU, so no cross-partition message can land inside the window it
// was sent from.
//
// Cross-partition traffic goes through sendToBackend/sendToCU, which count
// each message on its boundary Link as they send it. The schedule is a
// pure function of the configuration.
type intraState struct {
	part *sim.Partitioned

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

// IntraInfo describes the partitioned schedule (System.IntraInfo).
type IntraInfo struct {
	Window    uint64 // conservative window width in cycles (the lookahead)
	Windows   uint64 // synchronization windows executed
	Crossings uint64 // cross-partition messages delivered
	Events    uint64 // events fired
}

// IntraInfo reports the partitioned-schedule statistics, accumulated over
// every run of the System; ok is false before its first run.
func (s *System) IntraInfo() (info IntraInfo, ok bool) {
	st := &s.intra
	return IntraInfo{
		Window:    st.part.Lookahead(),
		Windows:   st.part.Windows(),
		Crossings: st.part.Crossings(),
		Events:    s.eng.Fired(),
	}, st.ran
}

// partition builds the window runner over the System's engine, with one
// partition per CU front end plus the backend and the NoC-derived
// lookahead. Called once, from New, after the network.
func (s *System) partition() {
	s.intra = intraState{
		part: sim.NewPartitioned(s.eng, s.cfg.GPU.NumCUs+1, s.net.MinLatency(intraRoutes[:]...)),
	}
	for i, r := range intraRoutes {
		s.intra.links[i] = s.net.Link(r)
	}
}

// runWindows executes the launched kernel's windows to completion (or
// until onWindow stops them).
func (s *System) runWindows(onWindow func(limit uint64) bool) {
	s.intra.ran = true
	s.intra.running = true
	defer func() { s.intra.running = false }()
	s.intra.part.Run(onWindow)
}

// sendToBackend delivers h.Handle(arg) on the backend partition after the
// boundary route's latency (routeL2 or routeIOMMU). Must be called from
// the CU's own partition.
func (s *System) sendToBackend(cu, route int, h sim.Handler, arg uint64) {
	l := s.intra.links[route]
	l.Messages++
	s.intra.part.SendEvent(cu+1, l.Latency, h, arg)
}

// sendToCU delivers h.Handle(arg) to a CU's partition after the boundary
// route's latency; the handler (or its argument) names the CU. Must be
// called from the backend partition.
func (s *System) sendToCU(route int, h sim.Handler, arg uint64) {
	l := s.intra.links[route]
	l.Messages++
	s.intra.part.SendEvent(0, l.Latency, h, arg)
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
	s.sendToCU(routeL2, (*l1Inval)(s), uint64(lvpn)<<cuArgBits|uint64(cu))
}

// gpuFabric carries the GPU's coordination messages over the partition
// boundary at the CU<->L2 network latency (not counted as NoC data
// messages): the CUs are front-end partitions, the coordinator is on the
// backend.
type gpuFabric System

func (f *gpuFabric) ToCoord(cu int, h sim.Handler, arg uint64) {
	f.intra.part.SendEvent(cu+1, f.intra.links[routeL2].Latency, h, arg)
}

func (f *gpuFabric) ToCU(_ int, h sim.Handler, arg uint64) {
	f.intra.part.SendEvent(0, f.intra.links[routeL2].Latency, h, arg)
}

// registerPartitionGauges exports the window runner's counters.
func (s *System) registerPartitionGauges() {
	st := &s.intra
	s.reg.Gauge("sim.windows", func() float64 { return float64(st.part.Windows()) })
	s.reg.Gauge("sim.mailbox.crossings", func() float64 { return float64(st.part.Crossings()) })
}
