package core

import (
	"context"
	"runtime"
	"testing"

	"vcache/internal/workloads"
)

// TestLifetimesAccumulateOnce: a System that runs twice keeps one
// cumulative lifetime record, shared by both Results, holding each per-CU
// TLB eviction exactly once.
func TestLifetimesAccumulateOnce(t *testing.T) {
	g, ok := workloads.ByName("bfs")
	if !ok {
		t.Fatal("no bfs workload")
	}
	tr := g.Build(workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 42})
	cfg := DesignBaseline512()
	cfg.GPU.NumCUs = 4
	cfg.TrackLifetimes = true
	sys := MustNew(cfg)

	r1 := sys.Run(tr)
	if n := r1.Lifetimes.TLBEntries.N(); n == 0 || n != int(r1.PerCUTLB.Evictions) {
		t.Fatalf("after run 1: %d TLB lifetimes, %d evictions", n, r1.PerCUTLB.Evictions)
	}
	r2 := sys.Run(tr)
	if r2.PerCUTLB.Evictions <= r1.PerCUTLB.Evictions {
		t.Fatalf("run 2 evicted nothing: %d cumulative evictions", r2.PerCUTLB.Evictions)
	}
	if n := r2.Lifetimes.TLBEntries.N(); n != int(r2.PerCUTLB.Evictions) {
		t.Fatalf("after run 2: %d TLB lifetimes, %d cumulative evictions", n, r2.PerCUTLB.Evictions)
	}
	if r1.Lifetimes != r2.Lifetimes {
		t.Fatal("the two runs' Results hold different lifetime records")
	}
}

// sinkFloats keeps the reference allocation in resultsWork on the heap.
var sinkFloats []float64

// allocBytes returns the bytes f allocates, as the least of a few calls so
// that a stray allocation by a runtime goroutine cannot inflate it.
func allocBytes(f func()) int64 {
	var m0, m1 runtime.MemStats
	least := int64(-1)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		if b := int64(m1.TotalAlloc - m0.TotalAlloc); least < 0 || b < least {
			least = b
		}
	}
	return least
}

// resultsWork collects results again after a run (which leaves them
// unchanged) and returns the bytes that call allocates beyond the rate
// series it must return, measured as a fresh slice of the same length so
// allocator size classes cancel, and the series length.
func resultsWork(s *System, name string) (extra int64, windows int) {
	windows = len(s.results(name).IOMMUSamples)
	got := allocBytes(func() { _ = s.results(name) })
	series := allocBytes(func() { sinkFloats = make([]float64, windows) })
	sinkFloats = nil
	return got - series, windows
}

// TestResultsWorkFlatAcrossLaunches pins result collection at O(launch) on
// a long-lived System: over a 240-launch churn replay (ASID rollovers,
// lifetime tracking on, IOMMU-bound baseline-512), the work one results
// call does apart from the rate series — counted as the bytes it
// allocates, not timed — is the same at launch 200 as at launch 10, while
// the series itself grows with the simulated time.
func TestResultsWorkFlatAcrossLaunches(t *testing.T) {
	p := workloads.ChurnParams{
		Tenants: 24, Launches: 240, ASIDSlots: 4,
		KernelPages: 16, SharedPages: 4,
		NumCUs: 4, WarpsPerCU: 2, Seed: 42, ArrivalPeriod: 1,
	}.Normalized()
	pl := workloads.BuildChurnPlan(p)
	cfg := DesignBaseline512()
	cfg.GPU.NumCUs = p.NumCUs
	cfg.TrackLifetimes = true
	sys := MustNew(cfg)
	var base int64
	var firstWindows, lastWindows int
	for i, l := range pl.Launches {
		if l.Retire != 0 {
			sys.RetireASID(l.Retire)
		}
		tr := pl.KernelTrace(l)
		if _, err := sys.RunContext(context.Background(), tr); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if i < 10 || i > 200 {
			continue
		}
		extra, windows := resultsWork(sys, tr.Name)
		switch i {
		case 10:
			base, firstWindows = extra, windows
		case 200:
			lastWindows = windows
		}
		if extra != base {
			t.Fatalf("launch %d: results allocated %d bytes beyond its %d-window series, %d at launch 10",
				i, extra, windows, base)
		}
	}
	t.Logf("rate series: %d windows at launch 10, %d at launch 200; results allocates %d bytes beyond it",
		firstWindows, lastWindows, base)
	if lastWindows < 2*firstWindows {
		t.Fatalf("rate series grew from %d to only %d windows: too short a replay to tell", firstWindows, lastWindows)
	}
}
