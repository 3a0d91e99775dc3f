package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/trace"
)

// batchedRun executes tr with the batched translation front-end at the
// given intra worker count, returning Results and the final metrics
// snapshot.
func batchedRun(t *testing.T, cfg Config, tr *trace.Trace, workers int) (Results, obs.Snapshot) {
	t.Helper()
	cfg.BatchedTranslation = true
	sys := MustNew(cfg)
	var last obs.Snapshot
	res, err := sys.RunContext(context.Background(), tr,
		WithIntraParallelism(workers),
		WithMetricsSnapshot(func(s obs.Snapshot) { last = s }))
	if err != nil {
		t.Fatalf("batched RunContext(workers=%d): %v", workers, err)
	}
	return res, last
}

// TestBatchedNoOpKinds: designs without a per-CU-TLB front end
// (VirtualHierarchy, IdealMMU) must be bit-identical with the flag set —
// enableBatching documents itself as a no-op there, and the GPU keeps the
// per-line issue path.
func TestBatchedNoOpKinds(t *testing.T) {
	pairs := []struct {
		workload string
		cfg      Config
	}{
		{"pagerank", DesignVCOpt()},
		{"hotspot", DesignIdeal()},
	}
	for _, p := range pairs {
		p := p
		t.Run(p.workload+"/"+p.cfg.Name, func(t *testing.T) {
			t.Parallel()
			tr := intraTestTrace(t, p.workload)
			legacy, legacySnap := intraRun(t, p.cfg, tr, 1)
			batched, batchedSnap := batchedRun(t, p.cfg, tr, 1)
			if !reflect.DeepEqual(legacy, batched) {
				t.Errorf("batched flag perturbed a no-op design\nlegacy: %+v\nbatched: %+v", legacy, batched)
			}
			if !reflect.DeepEqual(legacySnap, batchedSnap) {
				t.Error("batched flag perturbed the final metrics snapshot of a no-op design")
			}
			if batched.Batch.Calls != 0 {
				t.Errorf("no-op design recorded %d batch calls", batched.Batch.Calls)
			}
		})
	}
}

// TestBatchedDeterministicAcrossWorkers is the batched-mode analogue of
// TestIntraDeterministicAcrossWorkers: the batched schedule differs from
// legacy by design, but within batched mode Results and metrics snapshots
// must be byte-identical at every intra worker count.
func TestBatchedDeterministicAcrossWorkers(t *testing.T) {
	pairs := []struct {
		workload string
		cfg      Config
	}{
		{"kmeans", DesignBaseline512()},
		{"bfs", DesignL1OnlyVC(512)},
	}
	counts := []int{2, 4, runtime.NumCPU()}
	for _, p := range pairs {
		p := p
		t.Run(p.workload+"/"+p.cfg.Name, func(t *testing.T) {
			t.Parallel()
			tr := intraTestTrace(t, p.workload)
			base, baseSnap := batchedRun(t, p.cfg, tr, 1)
			if base.Cycles == 0 || base.Batch.Calls == 0 {
				t.Fatalf("degenerate batched baseline: %+v", base.Batch)
			}
			for _, n := range counts {
				res, snap := batchedRun(t, p.cfg, tr, n)
				if !reflect.DeepEqual(base, res) {
					t.Errorf("workers=%d: batched Results diverge from serial\nserial: %+v\nparallel: %+v", n, base, res)
				}
				if !reflect.DeepEqual(baseSnap, snap) {
					t.Errorf("workers=%d: batched metrics snapshot diverges from serial", n)
				}
			}
		})
	}
}

// TestBatchedConservation: batched and legacy runs of the same
// (trace, config) must agree on everything the front-end restructuring
// cannot change — instruction/line counts, total TLB probe volume, fault
// totals — and the batched counters must satisfy their own accounting
// identity: every probed chunk either hit inline, was bulk-submitted to
// the IOMMU, or merged behind an outstanding same-page request.
func TestBatchedConservation(t *testing.T) {
	pairs := []struct {
		workload string
		cfg      Config
	}{
		{"kmeans", DesignBaseline512()},
		{"bfs", DesignL1OnlyVC(512)},
	}
	for _, p := range pairs {
		p := p
		t.Run(p.workload+"/"+p.cfg.Name, func(t *testing.T) {
			t.Parallel()
			tr := intraTestTrace(t, p.workload)
			legacy, _ := intraRun(t, p.cfg, tr, 1)
			batched, _ := batchedRun(t, p.cfg, tr, 1)

			if !reflect.DeepEqual(legacy.GPU, batched.GPU) {
				t.Errorf("GPU stats diverge\nlegacy: %+v\nbatched: %+v", legacy.GPU, batched.GPU)
			}
			if legacy.Faults != batched.Faults {
				t.Errorf("fault totals diverge: legacy %+v, batched %+v", legacy.Faults, batched.Faults)
			}
			// Every line probes the per-CU TLB exactly once on the
			// baseline design, whether line-by-line or as a span, so the
			// total probe volume is mode-invariant (the hit/miss split is
			// not: batching shifts arrival cycles).
			if p.cfg.Kind == PhysicalBaseline {
				la := legacy.PerCUTLB.Hits + legacy.PerCUTLB.Misses
				ba := batched.PerCUTLB.Hits + batched.PerCUTLB.Misses
				if la != ba {
					t.Errorf("TLB probe volume diverges: legacy %d, batched %d", la, ba)
				}
				if batched.Batch.Lines != batched.GPU.CoalescedReqs {
					t.Errorf("Batch.Lines = %d, want CoalescedReqs = %d",
						batched.Batch.Lines, batched.GPU.CoalescedReqs)
				}
			}

			b := batched.Batch
			if b.Calls == 0 || b.Lines == 0 || b.Chunks == 0 {
				t.Fatalf("batched path did not run: %+v", b)
			}
			if legacy.Batch.Calls != 0 || legacy.IOMMU.BulkCalls != 0 {
				t.Errorf("legacy run recorded batch activity: %+v, bulk=%d", legacy.Batch, legacy.IOMMU.BulkCalls)
			}
			if b.Chunks != b.HitChunks+batched.IOMMU.BulkMisses+batched.TLBMerges {
				t.Errorf("chunk accounting broken: Chunks=%d != HitChunks=%d + BulkMisses=%d + TLBMerges=%d",
					b.Chunks, b.HitChunks, batched.IOMMU.BulkMisses, batched.TLBMerges)
			}
			if b.Chunks > b.Lines {
				t.Errorf("more chunks (%d) than lines (%d)", b.Chunks, b.Lines)
			}
			if r := b.DedupRatio(); r < 0 || r >= 1 {
				t.Errorf("dedup ratio %v out of range [0,1)", r)
			}
		})
	}
}

// TestGoldenBatchedSingleLine: for a one-line instruction the batched
// composition degenerates to the per-line one — port slot, +PerCUTLB
// probe, one CU→IOMMU round trip, one walk, then the physical path — so
// the per-line golden cycle counts hold exactly (956 cold, 1158 with the
// warm-TLB second line; see TestGoldenBaselineColdLoad).
func TestGoldenBatchedSingleLine(t *testing.T) {
	cfg := goldenCfg(DesignBaseline512())
	cfg.BatchedTranslation = true
	r := MustRun(cfg, oneLoad(0x4000))
	if r.Cycles != 956 {
		t.Fatalf("cold batched baseline load = %d cycles, want 956", r.Cycles)
	}
	if r.Batch.Calls != 1 || r.Batch.Chunks != 1 || r.IOMMU.BulkMisses != 1 {
		t.Fatalf("batch stats: %+v, bulk misses %d", r.Batch, r.IOMMU.BulkMisses)
	}

	b := trace.NewBuilder("golden", 1, 1, 1)
	b.Warp().Load(0x4000).Load(0x4080)
	r = MustRun(cfg, b.Build())
	if r.Cycles != 1158 {
		t.Fatalf("warm-TLB batched load = %d cycles, want 1158", r.Cycles)
	}
	if r.Batch.InlineHits != 1 {
		t.Fatalf("warm second line should peel inline: %+v", r.Batch)
	}
}

// TestGoldenBatchedMultiLine pins the timing of a two-line same-page
// instruction under batching: both lines ride one chunk, one TLB span
// probe, one bulk IOMMU submission and one walk. The batch fires at the
// second line's port slot (one cycle after the first), so the whole
// instruction completes exactly one cycle later than the single-line cold
// load; the second line's L1 fill merges into the first's.
func TestGoldenBatchedMultiLine(t *testing.T) {
	cfg := goldenCfg(DesignBaseline512())
	cfg.BatchedTranslation = true
	b := trace.NewBuilder("golden", 1, 1, 1)
	b.Warp().Load(0x4000, 0x4080)
	r := MustRun(cfg, b.Build())
	if r.Batch.Calls != 1 || r.Batch.Lines != 2 || r.Batch.Chunks != 1 {
		t.Fatalf("batch stats: %+v", r.Batch)
	}
	if r.IOMMU.Walks != 1 || r.IOMMU.BulkCalls != 1 || r.IOMMU.BulkMisses != 1 {
		t.Fatalf("IOMMU stats: %+v", r.IOMMU)
	}
	if r.Cycles != 957 {
		t.Fatalf("two-line batched load = %d cycles, want 957 (956 + 1 port slot)", r.Cycles)
	}
}

// TestTranslateLinesZeroAlloc pins the steady-state allocation behaviour
// of the batched hot path: once the frame pool and scratch buffers are
// warm, acquire→chunk→probe→release allocates nothing.
func TestTranslateLinesZeroAlloc(t *testing.T) {
	cfg := smallCfg(DesignBaseline512())
	cfg.BatchedTranslation = true
	s := MustNew(cfg)

	// Make half the pages TLB-resident so both hit and miss chunks are
	// exercised.
	for i := 0; i < 4; i += 2 {
		s.cuTLBs[0].Insert(s.asid, memory.VPN(i), memory.PPN(100+i), memory.PermRead|memory.PermWrite)
	}
	lines := make([]memory.VAddr, 0, 32)
	for i := 0; i < 32; i++ {
		page := uint64(i % 4)
		lines = append(lines, memory.VAddr(page*memory.PageSize+uint64(i)*memory.LineSize%memory.PageSize))
	}
	nop := func() {}

	// Warm the pool and scratch once.
	f := s.acquireFrame(0, lines, false, nop)
	f.chunk()
	s.probeChunks(0, f)
	s.releaseFrame(0, f)

	allocs := testing.AllocsPerRun(1000, func() {
		f := s.acquireFrame(0, lines, false, nop)
		f.chunk()
		s.probeChunks(0, f)
		s.releaseFrame(0, f)
	})
	if allocs != 0 {
		t.Fatalf("steady-state TranslateLines front half allocates %.1f/op, want 0", allocs)
	}
}

// TestBatchedScratchReuseAcrossPartitions hammers the per-CU frame pools
// from a real multi-partition run (the package's -race CI run makes this a
// data-race probe too): after the run every frame must be back in its
// owner's pool, and the pools must have actually recycled — far fewer
// frames made than batches processed.
func TestBatchedScratchReuseAcrossPartitions(t *testing.T) {
	cfg := smallCfg(DesignBaseline512())
	cfg.BatchedTranslation = true
	tr := divergentTrace("scratch", 1500, 64)
	sys := MustNew(cfg)
	res, err := sys.RunContext(context.Background(), tr, WithIntraParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Calls < 1000 {
		t.Fatalf("expected >=1000 batches, got %d", res.Batch.Calls)
	}
	var made int
	for cu := range sys.batch {
		p := &sys.batch[cu]
		if len(p.free) != p.made {
			t.Errorf("cu%d: %d of %d frames not returned to the pool", cu, p.made-len(p.free), p.made)
		}
		made += p.made
	}
	if made == 0 || uint64(made) >= res.Batch.Calls/10 {
		t.Errorf("pool reuse ineffective: %d frames made for %d batches", made, res.Batch.Calls)
	}

	// The same pools must also tolerate concurrent runs of independent
	// systems (each CU partition owns its pool exclusively); this is a
	// sanity guard, the race detector does the real checking.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2 := MustNew(cfg)
			if _, err := s2.RunContext(context.Background(), tr, WithIntraParallelism(2)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
