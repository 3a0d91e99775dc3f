package experiments

import (
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

func testParams() workloads.Params {
	return workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 3}
}

// A suite built over a subset must reject workloads outside it — before
// this was enforced, Trace silently built traces for any catalog workload
// — and must return errors, not panic, for unknown names.
func TestTraceSubsetMembership(t *testing.T) {
	s, err := New(testParams(), []string{"fw_block"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Trace("pagerank"); err == nil {
		t.Fatal("workload outside the suite's subset accepted")
	}
	if _, err := s.Trace("bogus"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	tr, err := s.Trace("fw_block")
	if err != nil || tr == nil {
		t.Fatalf("suite workload rejected: %v", err)
	}
}

func TestRunAllRejectsUnknownWorkload(t *testing.T) {
	s, err := New(testParams(), []string{"fw_block"})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []RunRequest{
		{Workload: "fw_block", Config: core.DesignIdeal()},
		{Workload: "kmeans", Config: core.DesignIdeal()},
	}
	if err := s.RunAll(reqs); err == nil {
		t.Fatal("RunAll accepted a workload outside the suite")
	}
	if n := s.RunCount(); n != 0 {
		t.Fatalf("simulations ran despite the error: %d", n)
	}
}

// Determinism: a parallel suite (8 workers) and a serial one (1 worker)
// must produce identical core.Results for every memo key, and identical
// rendered figure text.
func TestParallelMatchesSerial(t *testing.T) {
	ids := append(Figures(), Extras()...)
	build := func(workers int) (*Suite, map[string]core.Results) {
		s, err := New(testParams(), []string{"fw_block", "kmeans"})
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		if err := s.Precompute(ids...); err != nil {
			t.Fatal(err)
		}
		return s, s.Results()
	}
	serialSuite, serial := build(1)
	parallelSuite, parallel := build(8)
	if len(serial) == 0 {
		t.Fatal("no runs executed")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for k, sr := range serial {
		pr, ok := parallel[k]
		if !ok {
			t.Fatalf("parallel suite missing %q", k)
		}
		if !reflect.DeepEqual(sr, pr) {
			t.Errorf("results differ for %q", strings.ReplaceAll(k, "\x00", "/"))
		}
	}
	if serialSuite.RenderAll() != parallelSuite.RenderAll() {
		t.Fatal("rendered output differs between serial and parallel execution")
	}
}

// Race safety: many goroutines hammer Run with overlapping keys (run
// under -race). Every caller must observe the identical memoized result,
// each key must simulate exactly once, and progress lines must stay
// unfragmented.
func TestRunConcurrentHammer(t *testing.T) {
	s, err := New(testParams(), []string{"fw_block", "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	var progress strings.Builder
	s.Progress = ProgressWriter(&progress)

	wls := []string{"fw_block", "kmeans"}
	cfgs := []core.Config{
		core.DesignIdeal(), baseline512Probed(),
		core.DesignBaseline16K(), core.DesignVCOpt(),
	}
	type pair struct {
		wl  string
		cfg core.Config
	}
	var pairs []pair
	for _, wl := range wls {
		for _, cfg := range cfgs {
			pairs = append(pairs, pair{wl, cfg})
		}
	}

	const goroutines = 16
	seen := make([]map[string]core.Results, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make(map[string]core.Results, len(pairs))
			for i := range pairs {
				p := pairs[(i+g)%len(pairs)] // vary claim order across goroutines
				out[p.wl+"\x00"+p.cfg.Name] = s.Run(p.wl, p.cfg)
			}
			// Concurrent snapshots must also be safe.
			if err := s.WriteCSV(io.Discard); err != nil {
				t.Error(err)
			}
			seen[g] = out
		}(g)
	}
	wg.Wait()

	if n := s.RunCount(); n != len(pairs) {
		t.Fatalf("singleflight failed: %d runs for %d keys", n, len(pairs))
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(seen[0], seen[g]) {
			t.Fatalf("goroutine %d observed different results", g)
		}
	}
	lines := strings.Split(strings.TrimSuffix(progress.String(), "\n"), "\n")
	if len(lines) != len(pairs) {
		t.Fatalf("progress lines = %d, want %d", len(lines), len(pairs))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "  ran ") || !strings.HasSuffix(l, ")") {
			t.Fatalf("fragmented progress line: %q", l)
		}
	}
}

// Every catalog entry's declared runs must cover every run its render
// reads: after Precompute(id), rendering id must simulate nothing new.
// Ids are unique, and Figures then Extras list them in catalog order.
func TestPlansCoverFigures(t *testing.T) {
	var ids []string
	for _, e := range catalog {
		if slices.Contains(ids, e.id) {
			t.Errorf("catalog id %q appears twice", e.id)
		}
		ids = append(ids, e.id)
		s, err := New(testParams(), []string{"fw_block", "kmeans"})
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = 4
		if err := s.Precompute(e.id); err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		n := s.RunCount()
		if _, err := s.Render(e.id); err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		if got := s.RunCount(); got != n {
			t.Errorf("figure %s: plan incomplete, render added %d runs", e.id, got-n)
		}
	}
	if got := append(Figures(), Extras()...); !slices.Equal(got, ids) {
		t.Errorf("Figures then Extras = %v, catalog order %v", got, ids)
	}
}

func TestForEachLimit(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		var mu sync.Mutex
		ran := make(map[int]int)
		err := forEachLimit(50, workers, func(i int) error {
			mu.Lock()
			ran[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ran) != 50 {
			t.Fatalf("workers=%d: ran %d of 50", workers, len(ran))
		}
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}
