package server

import (
	"context"
	"runtime"
	"testing"

	"vcache/internal/core"
	"vcache/internal/fingerprint"
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
	sysKey   fingerprint.Sum // core.ConfigFingerprint(cfg)
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
			jobs = append(jobs, coldJob{wl, cfg, core.ConfigFingerprint(cfg)})
		}
	}
	return jobs
}

// newColdPool returns an idle-System pool the size of daemon-mix's, which
// runs two workers over two designs.
func newColdPool() *systemPool { return &systemPool{max: len(coldJobDesigns)} }

// runColdJobs runs jobs as a worker does, every trace built into b and
// every System taken from pool and kept there again, Reset, at scale 1
// with 8 CUs x 4 warps; job j gets seed firstSeed+j, so each one
// generates its trace, prepares it, simulates and encodes its result. It
// returns the coalesced lines simulated.
func runColdJobs(tb testing.TB, b *trace.Builder, pool *systemPool, jobs []coldJob, firstSeed uint64) float64 {
	tb.Helper()
	var lines float64
	for j, job := range jobs {
		p := workloads.Params{Scale: 1, NumCUs: 8, WarpsPerCU: 4, Seed: firstSeed + uint64(j)}
		res, _, sys, err := simulate(context.Background(), simRunner{}, b, pool.take(job.sysKey), job.workload, p, job.cfg, nil)
		if err != nil {
			tb.Fatal(err)
		}
		pool.keep(job.sysKey, sys)
		lines += float64(res.GPU.CoalescedReqs)
	}
	return lines
}

// BenchmarkColdJob times what a cold vcsimd job runs, in-process: one op
// is a worker's path (simulate) over daemon-mix's 12 pairs, every trace
// built into one Builder and every System reused from a pool of two
// across the whole loop, as daemon-mix's workers reuse theirs. B/line is
// every byte allocated per coalesced line simulated, daemon-mix's
// heap_bytes_per_line without the HTTP, JSON and result-cache layers.
func BenchmarkColdJob(b *testing.B) {
	jobs := coldJobs(b)
	builder := trace.NewBuilder("", 0, 1, 1)
	pool := newColdPool()
	var lines float64
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		lines += runColdJobs(b, builder, pool, jobs, uint64(i*len(jobs)+1))
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/lines, "B/line")
}

// TestWarmWorkerTraceBytes: a worker whose Builder has built daemon-mix's
// traces once, and whose two Systems have run them, builds the next 12
// cold jobs' traces into the Builder and runs them on the Systems, Reset,
// so what those jobs allocate (the generators' graphs, the Results and
// their encoding, the metrics snapshot) stays under 20 B per coalesced
// line. A new System per job costs about 64; a new System and Builder per
// job about 248.
func TestWarmWorkerTraceBytes(t *testing.T) {
	const maxBytesPerLine = 20
	jobs := coldJobs(t)
	b := trace.NewBuilder("", 0, 1, 1)
	pool := newColdPool()
	runColdJobs(t, b, pool, jobs, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lines := runColdJobs(t, b, pool, jobs, uint64(len(jobs)+1))
	runtime.ReadMemStats(&after)
	perLine := float64(after.TotalAlloc-before.TotalAlloc) / lines
	t.Logf("warm worker: %.1f B per coalesced line over %.0f lines", perLine, lines)
	if perLine > maxBytesPerLine {
		t.Errorf("a warm worker's cold jobs allocate %.1f B per coalesced line, want <= %d", perLine, maxBytesPerLine)
	}
}
