package core

import (
	"context"
	"testing"

	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// End-to-end simulator throughput: one small system processing a
// divergent trace under each MMU design.

func benchTrace() *trace.Trace {
	return divergentTrace("bench", 400, 300)
}

func benchRun(b *testing.B, cfg Config) {
	tr := benchTrace()
	var reqs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := MustRun(smallCfg(cfg), tr)
		reqs = r.GPU.CoalescedReqs
	}
	b.ReportMetric(float64(reqs), "coalesced-reqs")
}

func BenchmarkRunIdeal(b *testing.B)       { benchRun(b, DesignIdeal()) }
func BenchmarkRunBaseline512(b *testing.B) { benchRun(b, DesignBaseline512()) }
func BenchmarkRunVCOpt(b *testing.B)       { benchRun(b, DesignVCOpt()) }
func BenchmarkRunL1OnlyVC(b *testing.B)    { benchRun(b, DesignL1OnlyVC(32)) }

// Real-workload end-to-end throughput: bfs under the baseline design.
// ns/op is the wall-clock per full simulation; events/s the event
// throughput of the System's engine.
func benchWorkloadRun(b *testing.B, cfg Config) {
	g, ok := workloads.ByName("bfs")
	if !ok {
		b.Fatal("bfs workload missing")
	}
	tr := g.Build(workloads.DefaultParams())
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := MustNew(cfg)
		if _, err := sys.RunContext(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
		info, _ := sys.IntraInfo()
		events += info.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkRunBFSBaseline(b *testing.B) { benchWorkloadRun(b, DesignBaseline512()) }
