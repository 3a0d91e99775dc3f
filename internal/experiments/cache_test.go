package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/workloads"
)

func cachedSuite(t *testing.T, dir string) *Suite {
	t.Helper()
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 3}
	s, err := New(p, []string{"pagerank", "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	s.Cache, err = artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countEvents tallies computed vs cache-served runs via the Progress hook.
func countEvents(s *Suite) (computed, cached *int) {
	computed, cached = new(int), new(int)
	s.Progress = func(ev RunEvent) {
		if ev.Cached {
			*cached++
		} else {
			*computed++
		}
	}
	return
}

// TestCacheConcurrency races two goroutines within one Suite and then a
// second Suite sharing the same directory on the same key: the result must
// be computed exactly once overall — the in-suite race collapses through
// the singleflight, and the second suite loads from disk. Run with -race.
// The cache holds the result only: a materialized run stores no trace.
func TestCacheConcurrency(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DesignBaseline512()

	a := cachedSuite(t, dir)
	computed, cached := countEvents(a)
	var wg sync.WaitGroup
	res := make([]core.Results, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = a.Run("pagerank", cfg)
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatal("racing goroutines observed different results")
	}
	if *computed != 1 || *cached != 0 {
		t.Fatalf("suite A: %d computed, %d cached (want 1, 0)", *computed, *cached)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "ctrace")); err != nil || len(ents) != 0 {
		t.Fatalf("suite A left %d trace entries (%v); want none", len(ents), err)
	}
	if st := a.Cache.Stats(); st.TraceHits+st.TraceMisses != 0 {
		t.Fatalf("suite A touched traces: %+v", st)
	}

	b := cachedSuite(t, dir)
	computed, cached = countEvents(b)
	got := b.Run("pagerank", cfg)
	if *computed != 0 || *cached != 1 {
		t.Fatalf("suite B: %d computed, %d cached (want 0, 1)", *computed, *cached)
	}
	if !reflect.DeepEqual(res[0], got) {
		t.Fatal("cache-served results differ from computed results")
	}
	st := b.Cache.Stats()
	if st.ResultHits != 1 || st.TraceHits+st.TraceMisses != 0 {
		t.Fatalf("suite B should hit the result without touching traces: %+v", st)
	}
}

// TestCacheWarmRunAllSkipsTraces checks the incremental fast path end to
// end: a second RunAll over a warm cache loads every result and never
// generates or loads a trace.
func TestCacheWarmRunAllSkipsTraces(t *testing.T) {
	dir := t.TempDir()
	reqs := []RunRequest{
		{"pagerank", core.DesignBaseline512()},
		{"kmeans", core.DesignBaseline512()},
		{"pagerank", core.DesignIdeal()},
	}

	a := cachedSuite(t, dir)
	if err := a.RunAll(reqs); err != nil {
		t.Fatal(err)
	}
	b := cachedSuite(t, dir)
	computed, cached := countEvents(b)
	if err := b.RunAll(reqs); err != nil {
		t.Fatal(err)
	}
	if *computed != 0 || *cached != len(reqs) {
		t.Fatalf("warm RunAll: %d computed, %d cached (want 0, %d)", *computed, *cached, len(reqs))
	}
	st := b.Cache.Stats()
	if st.TraceHits+st.TraceMisses != 0 {
		t.Fatalf("warm RunAll touched traces: %+v", st)
	}
	if !reflect.DeepEqual(a.Results(), b.Results()) {
		t.Fatal("warm results differ from cold results")
	}
}

// TestCacheBypassedForLiveObservation: metrics capture needs a live
// simulation, so a warm cache must not short-circuit it.
func TestCacheBypassedForLiveObservation(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DesignBaseline512()

	a := cachedSuite(t, dir)
	want := a.Run("kmeans", cfg)

	b := cachedSuite(t, dir)
	b.CaptureMetrics = true
	computed, cached := countEvents(b)
	got := b.Run("kmeans", cfg)
	if *computed != 1 || *cached != 0 {
		t.Fatalf("CaptureMetrics run: %d computed, %d cached (want 1, 0)", *computed, *cached)
	}
	if _, ok := b.Metrics("kmeans", cfg.Name); !ok {
		t.Fatal("no metrics snapshot captured")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("live recomputation diverged from cached result")
	}
}

// TestCacheDisabledMatches: identical results with and without the cache.
func TestCacheDisabledMatches(t *testing.T) {
	cfg := core.DesignVCOpt()
	a := cachedSuite(t, t.TempDir())
	cold := a.Run("pagerank", cfg)

	b := cachedSuite(t, a.Cache.Dir())
	warm := b.Run("pagerank", cfg)

	nc := testSuite(t) // no cache at all
	plain := nc.Run("pagerank", cfg)

	if !reflect.DeepEqual(cold, warm) || !reflect.DeepEqual(cold, plain) {
		t.Fatal("cached, warm and uncached results are not identical")
	}
}
