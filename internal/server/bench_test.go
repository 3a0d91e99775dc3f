package server

import (
	"context"
	"runtime"
	"testing"

	"vcache/internal/core"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// The (workload, design) pairs of vcbench's daemon-mix workload.
var (
	coldJobWorkloads = []string{"bfs", "kmeans", "hotspot", "backprop", "pathfinder", "nw"}
	coldJobDesigns   = []string{"baseline-512", "vc-opt"}
)

// coldJob is one (workload, design) pair of daemon-mix.
type coldJob struct {
	workload string
	cfg      core.Config
}

// coldJobs returns daemon-mix's 12 pairs.
func coldJobs(tb testing.TB) []coldJob {
	tb.Helper()
	var jobs []coldJob
	for _, wl := range coldJobWorkloads {
		for _, design := range coldJobDesigns {
			cfg, ok := core.DesignByName(design)
			if !ok {
				tb.Fatalf("unknown design %q", design)
			}
			jobs = append(jobs, coldJob{wl, cfg})
		}
	}
	return jobs
}

// runColdJobs runs jobs as one worker does, every trace built into b, at
// scale 1 with 8 CUs x 4 warps; job j gets seed firstSeed+j, so each one
// generates its trace, prepares it and simulates. It returns the coalesced
// lines simulated.
func runColdJobs(tb testing.TB, b *trace.Builder, jobs []coldJob, firstSeed uint64) float64 {
	tb.Helper()
	var r simRunner
	var lines float64
	for j, job := range jobs {
		p := workloads.Params{Scale: 1, NumCUs: 8, WarpsPerCU: 4, Seed: firstSeed + uint64(j)}
		res, _, err := r.run(context.Background(), b, job.workload, p, job.cfg, nil)
		if err != nil {
			tb.Fatal(err)
		}
		lines += float64(res.GPU.CoalescedReqs)
	}
	return lines
}

// BenchmarkColdJob times what a cold vcsimd job runs, in-process: one op
// is simRunner.run over daemon-mix's 12 pairs, every trace built into one
// Builder across the whole loop, as a worker builds its jobs'. B/line is
// every byte allocated per coalesced line simulated, daemon-mix's
// heap_bytes_per_line without the HTTP, JSON and result-cache layers.
func BenchmarkColdJob(b *testing.B) {
	jobs := coldJobs(b)
	builder := trace.NewBuilder("", 0, 1, 1)
	var lines float64
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		lines += runColdJobs(b, builder, jobs, uint64(i*len(jobs)+1))
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/lines, "B/line")
}

// TestWarmWorkerTraceBytes: a worker whose Builder has built daemon-mix's
// traces once builds the next 12 cold jobs' traces without allocating for
// them, so what those jobs allocate (the Systems, Prepare's page tables,
// the Results) stays under 120 B per coalesced line. Building each trace
// into a fresh Builder costs about 248.
func TestWarmWorkerTraceBytes(t *testing.T) {
	const maxBytesPerLine = 120
	jobs := coldJobs(t)
	b := trace.NewBuilder("", 0, 1, 1)
	runColdJobs(t, b, jobs, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lines := runColdJobs(t, b, jobs, uint64(len(jobs)+1))
	runtime.ReadMemStats(&after)
	perLine := float64(after.TotalAlloc-before.TotalAlloc) / lines
	t.Logf("warm worker: %.1f B per coalesced line over %.0f lines", perLine, lines)
	if perLine > maxBytesPerLine {
		t.Errorf("a warm worker's cold jobs allocate %.1f B per coalesced line, want <= %d", perLine, maxBytesPerLine)
	}
}
