package experiments

import (
	"fmt"
	"sync"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// RunRequest names one simulation a figure needs: a workload under a
// fully-specified design config.
type RunRequest struct {
	Workload string
	Config   core.Config
}

// An experiment is one catalog entry: a table, figure or extra study.
type experiment struct {
	id    string
	extra bool // beyond the paper's evaluation: listed by Extras, not Figures
	// The runs render reads: every workload wls returns under every config
	// in configs, workload-major. A nil wls means render reads no suite
	// runs: it builds no System, or builds its own.
	wls     func(*Suite) []workloads.Generator
	configs []core.Config
	render  func(*Suite) string
}

// catalog lists every experiment in render order, the paper's tables and
// figures first. Render precomputes the runs an entry declares before it
// calls the entry's render, and TestPlansCoverFigures checks that the
// declared runs cover every run the render reads: rendering a
// precomputed entry must add zero new runs.
var catalog = []experiment{
	{id: "table1", render: static(Table1)},
	{id: "table2", render: static(Table2)},
	{id: "2", render: text((*Suite).Fig2),
		wls: (*Suite).Workloads, configs: sweep(fig2Config, perCUTLBSizes)},
	{id: "3", render: text((*Suite).Fig3),
		wls: (*Suite).Workloads, configs: []core.Config{fig3Config()}},
	{id: "4", render: text((*Suite).Fig4),
		wls: (*Suite).Workloads, configs: []core.Config{
			core.DesignIdeal(), baseline512Probed(), core.DesignBaseline16K()}},
	{id: "5", render: text((*Suite).Fig5),
		wls: (*Suite).highBandwidth, configs: append([]core.Config{core.DesignIdeal()},
			sweep(fig5Config, fig5Bandwidths)...)},
	{id: "8", render: text((*Suite).Fig8),
		wls: (*Suite).Workloads, configs: []core.Config{
			baseline512Probed(), core.DesignVCOpt()}},
	{id: "9", render: text((*Suite).Fig9),
		wls: (*Suite).Workloads, configs: []core.Config{
			core.DesignIdeal(), baseline512Probed(), core.DesignBaseline16K(),
			core.DesignVC(), core.DesignVCOpt()}},
	{id: "10", render: text((*Suite).Fig10),
		wls: (*Suite).highBandwidth, configs: []core.Config{
			core.DesignBaselineLargePerCU(), core.DesignVCOpt()}},
	{id: "11", render: text((*Suite).Fig11),
		wls: (*Suite).Workloads, configs: []core.Config{
			core.DesignBaseline16K(), core.DesignL1OnlyVC(32),
			core.DesignL1OnlyVC(128), core.DesignVCOpt()}},
	{id: "12", render: text((*Suite).Fig12),
		wls: (*Suite).fig12Workloads, configs: []core.Config{fig12Config()}},
	{id: "area", extra: true, render: static(Area)},
	{id: "banked", extra: true, render: text((*Suite).Banked),
		wls: (*Suite).highBandwidth, configs: append(bankedDesigns(), core.DesignIdeal())},
	{id: "largepages", extra: true, render: text((*Suite).LargePages),
		wls: (*Suite).highBandwidth, configs: []core.Config{
			baseline512Probed(), largePagesConfig(), core.DesignVCOpt()}},
	{id: "dsr", extra: true, render: text((*Suite).DSR)},
	{id: "energy", extra: true, render: text((*Suite).Energy),
		wls: (*Suite).highBandwidth, configs: []core.Config{
			baseline512Probed(), core.DesignVCOpt()}},
	{id: "churn", extra: true, render: text((*Suite).Churn)},
}

// text adapts a figure method, which returns its rows and its text, to a
// render.
func text[R any](fig func(*Suite) (R, string)) func(*Suite) string {
	return func(s *Suite) string {
		_, out := fig(s)
		return out
	}
}

// static adapts a render that reads no suite state.
func static(render func() string) func(*Suite) string {
	return func(*Suite) string { return render() }
}

// sweep builds one config per swept value.
func sweep(config func(int) core.Config, values []int) []core.Config {
	out := make([]core.Config, len(values))
	for i, v := range values {
		out[i] = config(v)
	}
	return out
}

// lookup finds the catalog entry with the given id.
func lookup(id string) (experiment, bool) {
	for _, e := range catalog {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// Figures lists the paper's tables and figures in render order.
func Figures() []string { return catalogIDs(false) }

// Extras lists experiment ids beyond the paper's figures: the §4.3 area
// accounting, ablations of the design points §3.2/§4.3 discuss
// qualitatively (banked shared TLBs, large pages, dynamic synonym
// remapping), the dynamic-energy estimate and the tenant-churn study.
func Extras() []string { return catalogIDs(true) }

func catalogIDs(extra bool) []string {
	var out []string
	for _, e := range catalog {
		if e.extra == extra {
			out = append(out, e.id)
		}
	}
	return out
}

// Plan returns the union of the runs the named catalog entries declare,
// each entry's workloads crossed with its configs, deduplicated by
// (workload, config) like Run's memo, in a stable first-requested order.
// Unknown ids and ids that need no suite runs contribute nothing.
func (s *Suite) Plan(ids ...string) []RunRequest {
	seen := make(map[RunRequest]bool)
	var out []RunRequest
	for _, id := range ids {
		e, ok := lookup(id)
		if !ok || e.wls == nil {
			continue
		}
		for _, g := range e.wls(s) {
			for _, cfg := range e.configs {
				if r := (RunRequest{g.Name, cfg}); !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// Precompute executes every simulation the named experiments need on the
// suite's worker pool. Rendering those figures afterwards reads the
// memoized results and simulates nothing new.
func (s *Suite) Precompute(ids ...string) error {
	return s.RunAll(s.Plan(ids...))
}

// RunAll executes the requests on a pool of s.Workers goroutines
// (default runtime.NumCPU()) in two pipeline stages: first every distinct
// workload's trace is generated (also independent per workload), then the
// simulations run. The memoized results are bit-identical to serial
// execution — each simulation stays single-threaded and deterministic;
// only the scheduling changes. A streaming suite without a Cache fails in
// the first stage, before any simulation.
func (s *Suite) RunAll(reqs []RunRequest) error {
	// Validate membership first so unknown workloads surface as errors
	// before any work starts (and Run below cannot panic on membership).
	var wls []string
	seen := make(map[string]bool)
	for _, r := range reqs {
		if seen[r.Workload] {
			continue
		}
		seen[r.Workload] = true
		if _, ok := s.generator(r.Workload); !ok {
			return fmt.Errorf("experiments: workload %q not in suite", r.Workload)
		}
		wls = append(wls, r.Workload)
	}
	// Stage 1: traces — but only for workloads that will actually simulate.
	// A workload whose every requested result is already on disk (or
	// memoized) skips trace generation entirely; if one of those entries
	// later turns out corrupt, Run falls back to building the trace itself.
	needed := wls[:0:0]
	for _, wl := range wls {
		for _, r := range reqs {
			if r.Workload == wl && s.needsCompute(r) {
				needed = append(needed, wl)
				break
			}
		}
	}
	err := forEachLimit(len(needed), s.workers(), func(i int) error {
		if s.StreamTraces {
			_, err := s.chunkedStream(needed[i])
			return err
		}
		_, err := s.Trace(needed[i])
		return err
	})
	if err != nil {
		return err
	}
	// Stage 2: simulations (and cached-result loads), s.workers() at a
	// time.
	return forEachLimit(len(reqs), s.workers(), func(i int) error {
		s.Run(reqs[i].Workload, reqs[i].Config)
		return nil
	})
}

// needsCompute reports whether a request will (probably) need an actual
// simulation: it is not memoized in-process and has no on-disk result
// entry. Used only as a planning hint for trace prefetching — Run makes
// the authoritative decision.
func (s *Suite) needsCompute(r RunRequest) bool {
	s.mu.Lock()
	_, claimed := s.results[r]
	s.mu.Unlock()
	if claimed {
		return false
	}
	if !s.cachesResults() {
		return true
	}
	return !s.Cache.HasResult(s.resultKey(r.Workload, r.Config))
}

// forEachLimit calls fn(0..n-1) from at most workers goroutines and
// returns the first error observed (remaining items still run to
// completion so the suite is never left with half-claimed keys).
func forEachLimit(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	idx := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for i := range idx {
				if err := fn(i); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
