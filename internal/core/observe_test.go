package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"vcache/internal/obs"
)

// RunContext with no options must be cycle-for-cycle identical to Run:
// same event order, same clock, same measurements.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := smallCfg(DesignVCOpt())
	want := MustNew(cfg).Run(divergentTrace("eq", 400, 64))
	got, err := RunContext(context.Background(), cfg, divergentTrace("eq", 400, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RunContext results differ from Run")
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, smallCfg(DesignBaseline512()), streamTrace("pre", 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cycles != 0 {
		t.Fatalf("cancelled run returned results: %+v", res)
	}
}

// Cancelling the context mid-run must stop the simulation between event
// chunks and surface ctx.Err(). The trace is sized so an uncancelled run
// spans several chunks (verified by counting progress callbacks), then the
// run is cancelled from inside the first progress report.
func TestRunContextCancelMidRun(t *testing.T) {
	cfg := smallCfg(DesignBaseline512())
	full := 0
	if _, err := RunContext(context.Background(), cfg, divergentTrace("mid", 3000, 128),
		WithProgress(func(Progress) { full++ })); err != nil {
		t.Fatal(err)
	}
	if full < 2 {
		t.Fatalf("trace too small to test mid-run cancellation: %d chunks", full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := RunContext(ctx, cfg, divergentTrace("mid", 3000, 128),
		WithProgress(func(Progress) {
			calls++
			cancel()
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("run continued past cancellation: %d progress reports", calls)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DesignBaseline512()
	cfg.GPU.NumCUs = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted NumCUs = 0")
	}
	_, err := RunContext(context.Background(), cfg, streamTrace("bad", 1))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConfigError", err)
	}
	if ce.Field != "GPU.NumCUs" {
		t.Fatalf("ConfigError.Field = %q, want GPU.NumCUs", ce.Field)
	}
}

// Options must reach the registry: the snapshot callback sees live metric
// values, and the JSONL sink receives one parseable record per snapshot.
func TestOptionPlumbing(t *testing.T) {
	var (
		sink  bytes.Buffer
		snaps []obs.Snapshot
	)
	res, err := RunContext(context.Background(), smallCfg(DesignBaseline512()),
		streamTrace("opt", 200),
		WithMetricsSink(&sink),
		WithMetricsInterval(500),
		WithMetricsSnapshot(func(s obs.Snapshot) { snaps = append(snaps, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want interval ticks plus a final one", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if v, ok := last.Value("gpu.instructions"); !ok || v != float64(res.GPU.Instructions) {
		t.Fatalf("gpu.instructions = %v (ok=%v), want %d", v, ok, res.GPU.Instructions)
	}
	lines := bytes.Split(bytes.TrimSuffix(sink.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(snaps) {
		t.Fatalf("sink lines = %d, snapshots = %d", len(lines), len(snaps))
	}
	for i, ln := range lines {
		var rec struct {
			Cycle   *uint64            `json:"cycle"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(ln, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Cycle == nil || rec.Metrics == nil {
			t.Fatalf("line %d missing cycle/metrics: %s", i, ln)
		}
		if *rec.Cycle != snaps[i].Cycle {
			t.Fatalf("line %d cycle = %d, want %d", i, *rec.Cycle, snaps[i].Cycle)
		}
	}
}

// The registry must reconcile exactly with the legacy Results counters for
// a full workload/design run: both read the same underlying stats structs,
// so any drift means a metric is wired to the wrong field.
func TestMetricsReconcileWithResults(t *testing.T) {
	var final obs.Snapshot
	res, err := RunContext(context.Background(), smallCfg(DesignVCOpt()),
		divergentTrace("recon", 1200, 256),
		WithMetricsSnapshot(func(s obs.Snapshot) { final = s }))
	if err != nil {
		t.Fatal(err)
	}
	if res.IOMMU.Walks == 0 || res.L1.ReadMisses == 0 {
		t.Fatal("workload too small: no walks or L1 misses to reconcile")
	}

	check := func(name string, got float64, want uint64) {
		t.Helper()
		if got != float64(want) {
			t.Errorf("%s = %v, Results says %d", name, got, want)
		}
	}
	value := func(name string) float64 {
		t.Helper()
		v, ok := final.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return v
	}

	check("gpu.instructions", value("gpu.instructions"), res.GPU.Instructions)
	check("gpu.mem_insts", value("gpu.mem_insts"), res.GPU.MemInsts)
	check("gpu.coalesced_reqs", value("gpu.coalesced_reqs"), res.GPU.CoalescedReqs)

	check("iommu.requests", value("iommu.requests"), res.IOMMU.Requests)
	check("iommu.tlb.hits", value("iommu.tlb.hits"), res.IOMMU.TLBHits)
	check("iommu.tlb.misses", value("iommu.tlb.misses"), res.IOMMU.TLBMisses)
	check("iommu.fbt_hits", value("iommu.fbt_hits"), res.IOMMU.FBTHits)
	check("iommu.walks", value("iommu.walks"), res.IOMMU.Walks)
	check("iommu.merged_walks", value("iommu.merged_walks"), res.IOMMU.MergedWalks)

	check("sum(l1.*.read_hits)", final.Sum("l1.cu", ".read_hits"), res.L1.ReadHits)
	check("sum(l1.*.read_misses)", final.Sum("l1.cu", ".read_misses"), res.L1.ReadMisses)
	check("sum(l1.*.write_hits)", final.Sum("l1.cu", ".write_hits"), res.L1.WriteHits)
	check("sum(l1.*.write_misses)", final.Sum("l1.cu", ".write_misses"), res.L1.WriteMisses)
	check("sum(l1.*.fills)", final.Sum("l1.cu", ".fills"), res.L1.Fills)
	check("sum(l1.*.evictions)", final.Sum("l1.cu", ".evictions"), res.L1.Evictions)
	check("l2.read_hits", value("l2.read_hits"), res.L2.ReadHits)
	check("l2.read_misses", value("l2.read_misses"), res.L2.ReadMisses)
	check("l2.fills", value("l2.fills"), res.L2.Fills)

	check("sum(tlb.*.hits)", final.Sum("tlb.cu", ".hits"), res.PerCUTLB.Hits)
	check("sum(tlb.*.misses)", final.Sum("tlb.cu", ".misses"), res.PerCUTLB.Misses)
	check("sum(tlb.*.inserts)", final.Sum("tlb.cu", ".inserts"), res.PerCUTLB.Inserts)
	check("sum(tlb.*.evictions)", final.Sum("tlb.cu", ".evictions"), res.PerCUTLB.Evictions)

	check("dram.reads", value("dram.reads"), res.DRAM.Reads)
	check("dram.writes", value("dram.writes"), res.DRAM.Writes)

	check("fbt.ppn_hits", value("fbt.ppn_hits"), res.FBT.PPNHits)

	check("core.tlb_merges", value("core.tlb_merges"), res.TLBMerges)
	check("core.line_merges", value("core.line_merges"), res.LineMerges)
	check("core.faults.page", value("core.faults.page"), res.Faults.PageFaults)
}
