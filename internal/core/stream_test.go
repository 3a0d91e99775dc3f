package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// streamTestParams keeps the full-catalog differential affordable while
// still running every CU configuration path.
func streamTestParams() workloads.Params {
	return workloads.Params{Scale: 1, NumCUs: 8, WarpsPerCU: 4, Seed: 42}
}

// chunkWorkload streams g at a deliberately tiny budget so every
// workload crosses several chunk boundaries mid-warp.
func chunkWorkload(t *testing.T, g workloads.Generator, p workloads.Params) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.BuildChunked(p, &buf, trace.ChunkOptions{Budget: 1 << 12}); err != nil {
		t.Fatalf("BuildChunked(%s): %v", g.Name, err)
	}
	return buf.Bytes()
}

// runMaterialized and runStreamed are the two sides of the differential:
// identical configs and observability, different trace front ends.
func runMaterialized(t *testing.T, cfg Config, tr *trace.Trace) (Results, obs.Snapshot) {
	t.Helper()
	var last obs.Snapshot
	res, err := RunContext(context.Background(), cfg, tr,
		WithMetricsSnapshot(func(s obs.Snapshot) { last = s }))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	return res, last
}

func runStreamed(t *testing.T, cfg Config, raw []byte) (Results, obs.Snapshot) {
	t.Helper()
	c, err := trace.NewCursor(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer c.Close()
	var last obs.Snapshot
	res, err := MustNew(cfg).RunCursor(context.Background(), c,
		WithMetricsSnapshot(func(s obs.Snapshot) { last = s }))
	if err != nil {
		t.Fatalf("RunCursor: %v", err)
	}
	return res, last
}

// TestStreamedRunMatchesMaterialized is the acceptance differential for
// the streaming front end: for every workload in the catalog, replaying
// the chunked stream must produce byte-identical Results (EncodeResults)
// and identical final metrics snapshots as simulating the fully
// materialized trace.
func TestStreamedRunMatchesMaterialized(t *testing.T) {
	p := streamTestParams()
	cfg := DesignVCOpt()
	for _, g := range workloads.All() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			t.Parallel()
			tr := g.Build(p)
			raw := chunkWorkload(t, g, p)
			wantRes, wantSnap := runMaterialized(t, cfg, tr)
			if wantRes.Cycles == 0 || wantRes.GPU.Instructions == 0 {
				t.Fatalf("degenerate materialized run: %+v", wantRes)
			}
			gotRes, gotSnap := runStreamed(t, cfg, raw)
			if !bytes.Equal(EncodeResults(gotRes), EncodeResults(wantRes)) {
				t.Errorf("streamed Results bytes diverge\nmaterialized: %+v\nstreamed: %+v", wantRes, gotRes)
			}
			if !reflect.DeepEqual(wantSnap, gotSnap) {
				t.Error("final metrics snapshot diverges between front ends")
			}
		})
	}
}

// TestStreamedRunAcrossDesigns spot-checks the differential on the other
// MMU designs (all four translation paths) with one representative
// high-bandwidth workload.
func TestStreamedRunAcrossDesigns(t *testing.T) {
	p := streamTestParams()
	g, ok := workloads.ByName("pagerank")
	if !ok {
		t.Fatal("pagerank missing")
	}
	tr := g.Build(p)
	raw := chunkWorkload(t, g, p)
	for _, cfg := range []Config{DesignBaseline512(), DesignL1OnlyVC(512), DesignIdeal()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			wantRes, _ := runMaterialized(t, cfg, tr)
			gotRes, _ := runStreamed(t, cfg, raw)
			if !bytes.Equal(EncodeResults(gotRes), EncodeResults(wantRes)) {
				t.Errorf("streamed Results bytes diverge\nmaterialized: %+v\nstreamed: %+v", wantRes, gotRes)
			}
		})
	}
}

// TestStreamedRunTruncatedStreamFails ensures a damaged stream fails the
// run rather than silently simulating a shorter trace.
func TestStreamedRunTruncatedStreamFails(t *testing.T) {
	p := streamTestParams()
	g, _ := workloads.ByName("kmeans")
	raw := chunkWorkload(t, g, p)

	// Corrupt a byte in the middle of the chunk payload region. Cursor
	// open still succeeds (structure and footer intact); the damage only
	// surfaces at decode time, mid-run.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	c, err := trace.NewCursor(bytes.NewReader(bad))
	if err != nil {
		t.Skipf("corruption detected at open (%v); decode-time path not reachable", err)
	}
	defer c.Close()
	if _, err := MustNew(DesignIdeal()).RunCursor(context.Background(), c); err == nil {
		t.Fatal("RunCursor on corrupted stream succeeded; want error")
	}
}

// TestWideAddressesReturnErrors: a lane address beyond the modeled 48-bit
// virtual address space fails the run with an error instead of aliasing a
// lower page or panicking, whether it arrives in a chunked file through
// RunCursor or in memory through RunContext.
func TestWideAddressesReturnErrors(t *testing.T) {
	for _, cfg := range []Config{DesignIdeal(), DesignBaseline512(), DesignVCOpt()} {
		c, err := trace.OpenCursorFile(filepath.Join("..", "trace", "testdata", "wide-lane.v4"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = MustNew(cfg).RunCursor(context.Background(), c)
		c.Close()
		if err == nil || !strings.Contains(err.Error(), "beyond the 48-bit virtual address space") {
			t.Errorf("%s: RunCursor of a wide lane = %v", cfg.Name, err)
		}

		b := trace.NewBuilder("wide", 1, 1, 1)
		b.Warp().Load(0x10000000, 0x10000000+1<<memory.VABits)
		_, err = RunContext(context.Background(), cfg, b.Build())
		if err == nil || !strings.Contains(err.Error(), "cu 0 warp 0 inst 0: lane 1") {
			t.Errorf("%s: RunContext of a wide lane = %v", cfg.Name, err)
		}
	}
}

// TestStoppedSystemRefusesRuns: a run that ends without completing leaves
// its kernel's warps live and its events queued, so every later run on
// that System, through RunContext, Execute or RunCursor, returns
// ErrStopped wrapping the error that ended it; run among those leftovers,
// a second RunContext after a cancelled bfs ends in ErrDeadlock. A stream
// that fails mid-run stops its System the same way, and a fresh System
// runs the trace to completion.
func TestStoppedSystemRefusesRuns(t *testing.T) {
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 42}
	g, _ := workloads.ByName("bfs")
	tr := g.Build(p)
	raw := chunkWorkload(t, g, p)
	cfg := DesignBaseline512()
	refused := func(sys *System, cause error) {
		t.Helper()
		_, errRun := sys.RunContext(context.Background(), tr)
		errExec := sys.Execute(context.Background(), tr)
		c, err := trace.NewCursor(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, errCursor := sys.RunCursor(context.Background(), c)
		for name, err := range map[string]error{"RunContext": errRun, "Execute": errExec, "RunCursor": errCursor} {
			if !errors.Is(err, ErrStopped) || !errors.Is(err, cause) {
				t.Errorf("%s on a stopped System = %v, want ErrStopped wrapping %v", name, err, cause)
			}
		}
	}

	sys := MustNew(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := sys.RunContext(ctx, tr, WithProgress(func(pr Progress) {
		if pr.Cycle > 60000 {
			cancel()
		}
	}))
	if err != context.Canceled || sys.Now() <= 60000 {
		t.Fatalf("cancelled run = %v at cycle %d, want context.Canceled past cycle 60000", err, sys.Now())
	}
	refused(sys, context.Canceled)

	wide, err := trace.OpenCursorFile(filepath.Join("..", "trace", "testdata", "wide-lane.v4"))
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	sys = MustNew(cfg)
	_, streamErr := sys.RunCursor(context.Background(), wide)
	if streamErr == nil || errors.Is(streamErr, ErrStopped) {
		t.Fatalf("RunCursor of a wide lane = %v, want the stream's error", streamErr)
	}
	refused(sys, streamErr)

	res, err := MustNew(cfg).RunContext(context.Background(), tr)
	if err != nil || res.Cycles <= 60000 {
		t.Fatalf("a fresh System ran the trace to %d cycles, %v", res.Cycles, err)
	}
}

// TestUnknownKindReturnsError: an instruction of no known kind fails the
// run with Validate's error instead of a panic in the GPU front end.
func TestUnknownKindReturnsError(t *testing.T) {
	b := trace.NewBuilder("kind", 1, 1, 2)
	b.Warp().Load(0x1000)
	tr := b.Build()
	tr.CUs[0].Warps[1] = append(tr.CUs[0].Warps[1], trace.Inst{Kind: 9})
	for _, cfg := range []Config{DesignIdeal(), DesignBaseline512(), DesignVCOpt()} {
		_, err := RunContext(context.Background(), cfg, tr)
		if err == nil || !strings.Contains(err.Error(), "cu 0 warp 1 inst 0: unknown instruction kind 9") {
			t.Errorf("%s: RunContext of an unknown kind = %v", cfg.Name, err)
		}
	}
}
