package server

import (
	"context"
	"runtime"
	"testing"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// The (workload, design) pairs of vcbench's daemon-mix workload.
var (
	coldJobWorkloads = []string{"bfs", "kmeans", "hotspot", "backprop", "pathfinder", "nw"}
	coldJobDesigns   = []string{"baseline-512", "vc-opt"}
)

// BenchmarkColdJob times what a cold vcsimd job runs, in-process: one op
// is simRunner.run over daemon-mix's 12 pairs at scale 1 with 8 CUs x 4
// warps, each job with a seed no other job used, so each one generates its
// trace, prepares it and simulates. B/line is every byte allocated per
// coalesced line simulated, daemon-mix's heap_bytes_per_line without the
// HTTP, JSON and result-cache layers.
func BenchmarkColdJob(b *testing.B) {
	type pair struct {
		workload string
		cfg      core.Config
	}
	var pairs []pair
	for _, wl := range coldJobWorkloads {
		for _, design := range coldJobDesigns {
			cfg, ok := core.DesignByName(design)
			if !ok {
				b.Fatalf("unknown design %q", design)
			}
			pairs = append(pairs, pair{wl, cfg})
		}
	}
	var r simRunner
	var lines float64
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		for j, pr := range pairs {
			p := workloads.Params{Scale: 1, NumCUs: 8, WarpsPerCU: 4, Seed: uint64(i*len(pairs) + j + 1)}
			res, _, err := r.run(context.Background(), pr.workload, p, pr.cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			lines += float64(res.GPU.CoalescedReqs)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/lines, "B/line")
}
