package iommu

import "vcache/internal/obs"

// Observe registers the IOMMU's counters, its access-rate sampler, the
// lookup-port queue, and the shared TLB (under "<scope>.tlb") with an
// observability scope.
func (io *IOMMU) Observe(sc obs.Scope) {
	sc.Counter("requests", &io.st.Requests)
	sc.Counter("fbt_hits", &io.st.FBTHits)
	sc.Counter("walks", &io.st.Walks)
	sc.Counter("merged_walks", &io.st.MergedWalks)
	sc.Counter("faults", &io.st.Faults)
	sc.Sampler("rate", io.sampler)

	q := sc.Scope("queue")
	q.Gauge("depth", func() float64 {
		var worst uint64
		for _, p := range io.ports {
			if b := p.Backlog(); b > worst {
				worst = b
			}
		}
		return float64(worst)
	})
	q.Gauge("delay", func() float64 {
		var total uint64
		for _, p := range io.ports {
			total += p.QueueDelay
		}
		return float64(total)
	})
	q.Gauge("max_delay", func() float64 {
		var worst uint64
		for _, p := range io.ports {
			if p.MaxDelay > worst {
				worst = p.MaxDelay
			}
		}
		return float64(worst)
	})
	q.Gauge("delay_p50", func() float64 { return io.DelayQuantile(0.50) })
	q.Gauge("delay_p99", func() float64 { return io.DelayQuantile(0.99) })

	io.tlb.Observe(sc.Scope("tlb"))
}
