package sim

// BandwidthServer models a bandwidth-limited resource that can begin at
// most PerCycle operations in any single cycle. Requests beyond that
// capacity are serialized into later cycles, which is exactly the queueing
// effect the paper identifies at the shared IOMMU TLB port. (It has nothing
// to do with serving network traffic; vcsimd's job server lives in
// internal/server.)
type BandwidthServer struct {
	eng      *Engine
	perCycle int
	cycle    uint64 // cycle the tail of the queue occupies
	used     int    // operations already admitted in that cycle, always < perCycle

	// QueueDelay accumulates cycles requests spent waiting for a slot.
	QueueDelay uint64
	// MaxDelay is the worst single-request queueing delay observed.
	MaxDelay uint64
}

// NewBandwidthServer returns a bandwidth server that admits perCycle
// operations per cycle. perCycle <= 0 means unlimited bandwidth (every
// request admitted immediately).
func NewBandwidthServer(eng *Engine, perCycle int) *BandwidthServer {
	return &BandwidthServer{eng: eng, perCycle: perCycle}
}

// Reset empties the queue and zeroes the statistics, as
// NewBandwidthServer leaves them.
func (s *BandwidthServer) Reset() {
	*s = BandwidthServer{eng: s.eng, perCycle: s.perCycle}
}

// Admit reserves the next available slot and returns the cycle at which the
// operation begins (>= the current cycle). Queueing statistics are updated.
func (s *BandwidthServer) Admit() uint64 {
	now := s.eng.Now()
	if s.perCycle <= 0 {
		return now
	}
	if s.cycle < now {
		s.cycle = now
		s.used = 0
	}
	at := s.cycle
	s.used++
	if s.used >= s.perCycle {
		s.cycle++
		s.used = 0
	}
	delay := at - now
	s.QueueDelay += delay
	if delay > s.MaxDelay {
		s.MaxDelay = delay
	}
	return at
}

// Backlog returns how many cycles ahead of now the queue tail currently
// sits (0 when the server is idle).
func (s *BandwidthServer) Backlog() uint64 {
	now := s.eng.Now()
	if s.cycle <= now {
		return 0
	}
	return s.cycle - now
}
