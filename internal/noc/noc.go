// Package noc models the SoC interconnect: a dance-hall network inside the
// GPU (CUs to the shared L2), and the point-to-point CPU-GPU link over
// which IOMMU translation requests travel. Translation requests use the
// PCIe protocol even for integrated GPUs, which adds latency (Kegel et
// al., cited by the paper), so the IOMMU route carries an extra protocol
// adder.
package noc

import (
	"fmt"

	"vcache/internal/sim"
)

// Route names an endpoint pair.
type Route string

// Standard routes in the modeled SoC.
const (
	CUToL2     Route = "cu-l2"     // dance-hall GPU network
	L2ToIOMMU  Route = "l2-iommu"  // virtual-cache miss path
	CUToIOMMU  Route = "cu-iommu"  // baseline per-CU TLB miss path
	IOMMUToMem Route = "iommu-mem" // page-table walker memory accesses
	L2ToMem    Route = "l2-mem"    // cache fill path
	CPUToGPU   Route = "cpu-gpu"   // coherence probes
)

// Link is a one-way interconnect segment with a fixed traversal latency
// and a bandwidth limit in messages per cycle (0 = unlimited).
type Link struct {
	Latency uint64
	server  *sim.BandwidthServer

	// Messages counts traversals.
	Messages uint64
}

// Network routes messages over configured links.
type Network struct {
	eng   *sim.Engine
	links map[Route]*Link
}

// New creates an empty network.
func New(eng *sim.Engine) *Network {
	return &Network{eng: eng, links: make(map[Route]*Link)}
}

// AddLink installs a link for route with the given latency and bandwidth
// (messages per cycle; 0 = unlimited). Adding a route twice replaces it.
func (n *Network) AddLink(r Route, latency uint64, perCycle int) *Link {
	l := &Link{Latency: latency, server: sim.NewBandwidthServer(n.eng, perCycle)}
	n.links[r] = l
	return l
}

// Reset zeroes every link's message count and empties its bandwidth
// queue, keeping the configured links.
func (n *Network) Reset() {
	for _, l := range n.links {
		l.Messages = 0
		l.server.Reset()
	}
}

// Link returns the link for r, or nil.
func (n *Network) Link(r Route) *Link { return n.links[r] }

// Latency returns the configured latency of r (0 for unknown routes, so an
// unconfigured network degrades to zero-latency, useful in unit tests).
func (n *Network) Latency(r Route) uint64 {
	if l := n.links[r]; l != nil {
		return l.Latency
	}
	return 0
}

// Send delivers a message over route r: h.Handle(arg) fires when it
// arrives. Unknown routes deliver with zero delay.
func (n *Network) Send(r Route, h sim.Handler, arg uint64) {
	l := n.links[r]
	if l == nil {
		n.eng.ScheduleEvent(0, h, arg)
		return
	}
	l.Messages++
	start := l.server.Admit()
	n.eng.AtEvent(start+l.Latency, h, arg)
}

// MinLatency returns the smallest configured latency among the given
// routes — the conservative lookahead of a partitioned simulation whose
// partitions exchange messages only over those routes. Unconfigured
// routes count as zero-latency, making the lookahead (correctly)
// degenerate.
func (n *Network) MinLatency(rs ...Route) uint64 {
	var min uint64
	for i, r := range rs {
		if l := n.Latency(r); i == 0 || l < min {
			min = l
		}
	}
	return min
}

func (l *Link) String() string {
	return fmt.Sprintf("link{lat: %d, msgs: %d}", l.Latency, l.Messages)
}
