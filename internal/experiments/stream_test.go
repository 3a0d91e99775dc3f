package experiments

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/workloads"
)

func streamSuite(t *testing.T, names ...string) *Suite {
	t.Helper()
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 3}
	s, err := New(p, names)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// streaming turns s into a streaming suite over a fresh artifact cache,
// where its streams live.
func streaming(t *testing.T, s *Suite) *Suite {
	t.Helper()
	c, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.StreamTraces, s.Cache = true, c
	return s
}

// TestStreamTracesMatchesMaterialized pins the suite-level differential:
// a streaming suite and a materialized suite produce identical Results
// for the same (workload, design) pairs, even at a budget small enough to
// force many chunks.
func TestStreamTracesMatchesMaterialized(t *testing.T) {
	names := []string{"pagerank", "kmeans"}
	base := streamSuite(t, names...)
	str := streaming(t, streamSuite(t, names...))
	str.ChunkBudget = 1 << 12
	for _, wl := range names {
		for _, cfg := range []core.Config{core.DesignBaseline512(), core.DesignVCOpt()} {
			want := base.Run(wl, cfg)
			got := str.Run(wl, cfg)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: streamed suite run diverges\nwant %+v\ngot  %+v", wl, cfg.Name, want, got)
			}
		}
	}
}

// TestStreamTracesProgressEvents checks that chunked generation surfaces
// per-chunk trace.gen events, that ProgressWriter renders them, and that
// a second run of the same workload reuses the memoized stream.
func TestStreamTracesProgressEvents(t *testing.T) {
	s := streaming(t, streamSuite(t, "pagerank"))
	s.ChunkBudget = 1 << 12
	var genChunks, simEvents int
	var buf bytes.Buffer
	pw := ProgressWriter(&buf)
	s.Progress = func(ev RunEvent) {
		pw(ev)
		switch ev.Stage {
		case "trace.gen":
			genChunks++
			if ev.Workload != "pagerank" || ev.Bytes <= 0 {
				t.Errorf("malformed trace.gen event: %+v", ev)
			}
		case "":
			simEvents++
		default:
			t.Errorf("unknown stage %q", ev.Stage)
		}
	}
	s.Run("pagerank", core.DesignIdeal())
	if genChunks < 2 {
		t.Fatalf("expected multi-chunk generation progress, saw %d chunk events", genChunks)
	}
	if simEvents != 1 {
		t.Fatalf("expected 1 simulation event, saw %d", simEvents)
	}
	if !strings.Contains(buf.String(), "gen pagerank") {
		t.Fatalf("ProgressWriter output missing trace.gen lines:\n%s", buf.String())
	}
	// Second design: stream is memoized, only the simulation event fires.
	genBefore := genChunks
	s.Run("pagerank", core.DesignBaseline512())
	if genChunks != genBefore {
		t.Fatalf("stream regenerated on second run (%d -> %d chunk events)", genBefore, genChunks)
	}
}

// TestStreamTracesCacheRoundTrip: with an artifact cache attached, the
// stream is generated straight into the cache file; a second suite over
// the same directory replays it off disk without regenerating.
func TestStreamTracesCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DesignBaseline512()

	a := streamSuite(t, "pagerank")
	a.StreamTraces = true
	a.ChunkBudget = 1 << 12
	var err error
	if a.Cache, err = artifact.Open(dir); err != nil {
		t.Fatal(err)
	}
	want := a.Run("pagerank", cfg)

	// The stream must exist on disk under ctrace/.
	entries, err := os.ReadDir(dir + "/ctrace")
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected 1 ctrace entry, got %v (err %v)", entries, err)
	}

	b := streamSuite(t, "pagerank")
	b.StreamTraces = true
	b.CaptureMetrics = true // forces a live simulation, exercising the stream
	if b.Cache, err = artifact.Open(dir); err != nil {
		t.Fatal(err)
	}
	var cachedGen bool
	b.Progress = func(ev RunEvent) {
		if ev.Stage == "trace.gen" {
			if !ev.Cached {
				t.Errorf("stream regenerated despite cache entry: %+v", ev)
			}
			cachedGen = true
		}
	}
	got := b.Run("pagerank", cfg)
	if !cachedGen {
		t.Fatal("no cached trace.gen event observed")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("cache-replayed streamed run diverges\nwant %+v\ngot  %+v", want, got)
	}
}

// TestStreamTracesPrecompute runs a whole plan in streaming mode and
// cross-checks a sample against materialized execution.
func TestStreamTracesPrecompute(t *testing.T) {
	names := []string{"pagerank", "bfs"}
	s := streaming(t, streamSuite(t, names...))
	s.ChunkBudget = 1 << 12
	s.Workers = 2
	if err := s.Precompute("3"); err != nil {
		t.Fatal(err)
	}
	base := streamSuite(t, names...)
	for k, got := range s.Results() {
		wl := k[:strings.IndexByte(k, 0)]
		want := base.Run(wl, fig3Config())
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: precomputed streamed result diverges", k)
		}
	}
}

// TestStreamTracesNeedCache: a streaming suite keeps its streams in the
// artifact cache, so Precompute without one fails and simulates nothing.
func TestStreamTracesNeedCache(t *testing.T) {
	s := streamSuite(t, "kmeans")
	s.StreamTraces = true
	var events int
	s.Progress = func(RunEvent) { events++ }
	if err := s.Precompute("3"); err == nil || !strings.Contains(err.Error(), "needs a Cache") {
		t.Fatalf("Precompute of a streaming suite without a cache returned %v", err)
	}
	if events != 0 || s.RunCount() != 0 {
		t.Fatalf("the failed Precompute emitted %d events and memoized %d runs", events, s.RunCount())
	}
}
