// Benchmarks: one per table and figure in the paper's evaluation. Each
// benchmark regenerates its figure end to end (trace generation plus all
// required simulations) on a reduced workload mix — pagerank (irregular
// graph, high translation bandwidth), bfs (level-synchronous traversal)
// and kmeans (regular streaming, low bandwidth) — so the harness finishes
// in minutes. The full 15-workload reproduction is `go run
// ./cmd/experiments -fig all`; EXPERIMENTS.md records its output against
// the paper's numbers.
package vcache

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"vcache/internal/experiments"
	"vcache/internal/workloads"
)

// benchWorkloads mixes the paper's high- and low-bandwidth classes.
var benchWorkloads = []string{"pagerank", "bfs", "kmeans"}

func benchParams() workloads.Params {
	return workloads.Params{Scale: 1, NumCUs: 8, WarpsPerCU: 4, Seed: 42}
}

func newBenchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.New(benchParams(), benchWorkloads)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTable1_Configuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2_MMUDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig2_TLBMissBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		rows, _ := s.Fig2()
		var filtered float64
		n := 0
		for _, r := range rows {
			if r.TLBSize == 32 {
				filtered += r.FilteredOfMisses
				n++
			}
		}
		b.ReportMetric(filtered/float64(n), "filtered-frac")
	}
}

func BenchmarkFig3_IOMMUAccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		rows, _ := s.Fig3()
		b.ReportMetric(rows[0].Mean, "peak-acc/cycle")
	}
}

func BenchmarkFig4_TranslationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		d, _ := s.Fig4()
		b.ReportMetric(d.Baseline512, "base512-reltime")
		b.ReportMetric(d.Baseline16K, "base16k-reltime")
	}
}

func BenchmarkFig5_BandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		rows, _ := s.Fig5()
		b.ReportMetric(rows[0].RelativeTime-1, "serialization-bw1")
		b.ReportMetric(rows[len(rows)-1].RelativeTime-1, "serialization-bw4")
	}
}

func BenchmarkFig8_BandwidthFiltering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		rows, _ := s.Fig8()
		var base, vc float64
		for _, r := range rows {
			base += r.BaselineMean
			vc += r.VCMean
		}
		b.ReportMetric(base/float64(len(rows)), "baseline-acc/cycle")
		b.ReportMetric(vc/float64(len(rows)), "vc-acc/cycle")
	}
}

func BenchmarkFig9_PerformanceVsIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		rows, _ := s.Fig9()
		avg := rows[len(rows)-1] // Average(ALL)
		b.ReportMetric(avg.Base512, "base512-perf")
		b.ReportMetric(avg.VCOpt, "vcopt-perf")
	}
}

func BenchmarkFig10_VsLargePerCUTLBs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		rows, _ := s.Fig10()
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup")
	}
}

func BenchmarkFig11_L1OnlyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		d, _ := s.Fig11()
		b.ReportMetric(d.L1Only32, "l1only32-speedup")
		b.ReportMetric(d.FullVC, "fullvc-speedup")
		if d.L1Only32 > 0 {
			b.ReportMetric(d.FullVC/d.L1Only32, "full-vs-l1only")
		}
	}
}

// BenchmarkSuiteParallel measures the experiment scheduler's scaling on
// the 3-workload bench suite: the union of every paper figure's run plan
// executed at 1, 2, 4 and NumCPU workers. The "speedup" metric is serial
// wall-clock over parallel wall-clock (so workers=1 reports ~1.0 and the
// trajectory of the others tracks the harness's throughput across PRs).
// On a single-core machine every point degenerates to ~1.0 by design —
// the scheduler only changes when simulations run, never what they
// compute.
func BenchmarkSuiteParallel(b *testing.B) {
	ids := experiments.Figures()
	measure := func(workers int) float64 {
		s, err := experiments.New(benchParams(), benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		s.Workers = workers
		start := time.Now()
		if err := s.Precompute(ids...); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Pair a serial reference with every timed iteration: the
			// testing framework re-invokes the parent function when it
			// re-runs a sub-benchmark, so state shared across b.Run
			// calls is unreliable. ns/op covers only the parallel run;
			// the serial reference is measured with the timer stopped.
			var serialTotal, parallelTotal float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				serialTotal += measure(1)
				b.StartTimer()
				parallelTotal += measure(workers)
			}
			b.ReportMetric(serialTotal/parallelTotal, "speedup")
		})
	}
}

func BenchmarkFig12_LifetimeCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newBenchSuite(b)
		rows, _ := s.Fig12()
		// The figure's point: at ~5000ns, most TLB entries are dead while
		// most cache data is still alive.
		for _, r := range rows {
			if r.LifetimeNs == 5000 {
				b.ReportMetric(r.TLBEntry, "tlb-dead-at-5us")
				b.ReportMetric(r.L2Data, "l2-dead-at-5us")
			}
		}
	}
}
