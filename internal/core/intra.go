package core

import (
	"vcache/internal/memory"
	"vcache/internal/sim"
)

// The partitioned event schedule — the only schedule a System runs.
//
// New splits a system into NumCUs+1 partitions — one per CU front end
// (warps, coalescer, L1, per-CU TLBs, invalidation filter, remap table)
// plus one shared back end (L2 and banks, IOMMU, FBT, page walker, DRAM
// and the GPU's warp-global coordinator). Every partition's events run on
// the System's one engine, in cycle order; a partition is kept only as the
// source of the messages that cross the boundary. sim.Partitioned
// delivers those messages at conservative window barriers. The window
// width (lookahead) is the minimum latency of the two routes that cross
// the partition boundary, CU<->L2 and CU<->IOMMU, so no cross-partition
// message can land inside the window it was sent from.
//
// Cross-partition traffic goes through sendToBackend/sendToCU, which count
// each message on its route as they send it. The schedule is a pure
// function of the configuration.
type intraState struct {
	part *sim.Partitioned

	// running is true while the windows execute. Between runs there is no
	// window to carry a message, so backend operations that reach CU
	// state (a shootdown's L1 flushes) apply it before they return.
	running bool
	ran     bool // at least one run started
}

// route is one of the interconnect's one-way segments: a fixed traversal
// latency from Config.Lat and a count of the messages sent over it. Routes
// have no bandwidth limit, so a message arrives its route's latency after
// it was sent.
type route struct {
	latency  uint64
	messages uint64
}

// The System's routes (System.routes), named in the metrics registry as
// "noc.<name>.messages".
const (
	routeL2      = iota // the GPU network between the CUs and the L2
	routeIOMMU          // per-CU TLB misses to the IOMMU, with the PCIe adder
	routeL2IOMMU        // the virtual L2 and the IOMMU: misses out, synonym replays back
	numRoutes
)

var routeNames = [numRoutes]string{routeL2: "cu-l2", routeIOMMU: "cu-iommu", routeL2IOMMU: "l2-iommu"}

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
// partition per CU front end plus the backend, and the boundary routes'
// smaller latency as the lookahead. Called once, from New.
func (s *System) partition() {
	s.intra = intraState{
		part: sim.NewPartitioned(s.eng, s.cfg.GPU.NumCUs+1, min(s.cfg.Lat.CUToL2, s.cfg.Lat.CUToIOMMU)),
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

// send delivers h.Handle(arg) over a route inside the backend, the
// route's latency from now.
func (s *System) send(rt int, h sim.Handler, arg uint64) {
	r := &s.routes[rt]
	r.messages++
	s.eng.ScheduleEvent(r.latency, h, arg)
}

// sendToBackend delivers h.Handle(arg) on the backend partition after the
// boundary route's latency (routeL2 or routeIOMMU). Must be called from
// the CU's own partition.
func (s *System) sendToBackend(cu, rt int, h sim.Handler, arg uint64) {
	r := &s.routes[rt]
	r.messages++
	s.intra.part.SendEvent(cu+1, r.latency, h, arg)
}

// sendToCU delivers h.Handle(arg) to a CU's partition after the boundary
// route's latency; the handler (or its argument) names the CU. Must be
// called from the backend partition.
func (s *System) sendToCU(rt int, h sim.Handler, arg uint64) {
	r := &s.routes[rt]
	r.messages++
	s.intra.part.SendEvent(0, r.latency, h, arg)
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
	f.intra.part.SendEvent(cu+1, f.routes[routeL2].latency, h, arg)
}

func (f *gpuFabric) ToCU(_ int, h sim.Handler, arg uint64) {
	f.intra.part.SendEvent(0, f.routes[routeL2].latency, h, arg)
}

// registerPartitionGauges exports the window runner's counters.
func (s *System) registerPartitionGauges() {
	st := &s.intra
	s.reg.Gauge("sim.windows", func() float64 { return float64(st.part.Windows()) })
	s.reg.Gauge("sim.mailbox.crossings", func() float64 { return float64(st.part.Crossings()) })
}
