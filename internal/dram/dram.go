// Package dram models main memory as a fixed-latency, bandwidth-limited
// device. The paper's system provides 192 GB/s; at the GPU's 700 MHz clock
// that is ~274 bytes per cycle, i.e. roughly two 128B lines per cycle, which
// the model enforces with a line-granular admission server.
package dram

import (
	"fmt"

	"vcache/internal/sim"
)

// Config describes the memory device.
type Config struct {
	// Latency is the fixed access latency in cycles (row access + controller).
	Latency uint64
	// LinesPerCycle bounds throughput in 128B-line transfers per cycle
	// (0 = unlimited).
	LinesPerCycle int
}

// DefaultConfig matches Table 1: 192 GB/s at 700 MHz, ~160-cycle latency.
func DefaultConfig() Config {
	return Config{Latency: 160, LinesPerCycle: 2}
}

// Stats counts DRAM traffic.
type Stats struct {
	Reads  uint64
	Writes uint64
}

// Accesses returns total line transfers.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// DRAM is the memory device model.
type DRAM struct {
	eng    *sim.Engine
	cfg    Config
	server *sim.BandwidthServer
	stats  Stats
}

// New builds a DRAM model.
func New(eng *sim.Engine, cfg Config) *DRAM {
	return &DRAM{eng: eng, cfg: cfg, server: sim.NewBandwidthServer(eng, cfg.LinesPerCycle)}
}

// Reset zeroes the traffic counters and empties the bandwidth queue, as
// New leaves them.
func (d *DRAM) Reset() {
	d.stats = Stats{}
	d.server.Reset()
}

// Stats returns a copy of the traffic counters.
func (d *DRAM) Stats() Stats { return d.stats }

// QueueDelay returns total cycles requests waited for bandwidth.
func (d *DRAM) QueueDelay() uint64 { return d.server.QueueDelay }

// Access performs one line transfer; h.Handle(arg) fires when the data is
// available (reads) or accepted (writes).
func (d *DRAM) Access(write bool, h sim.Handler, arg uint64) {
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	start := d.server.Admit()
	d.eng.AtEvent(start+d.cfg.Latency, h, arg)
}

func (d *DRAM) String() string {
	return fmt.Sprintf("dram{lat: %d, lines/cy: %d, reads: %d, writes: %d}",
		d.cfg.Latency, d.cfg.LinesPerCycle, d.stats.Reads, d.stats.Writes)
}
