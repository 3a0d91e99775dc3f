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

// planners maps experiment ids to the (workload, config) pairs the
// figure's render method will request, so Precompute can execute the
// union of several figures' runs on a worker pool before any rendering
// happens. Ids that run no suite simulations (table1, table2, area, and
// dsr, which builds its own synthetic system) are absent.
// TestPlansCoverFigures keeps this table in lockstep with the render
// methods: rendering a precomputed figure must add zero new runs.
var planners = map[string]func(*Suite) []RunRequest{
	"2":          (*Suite).planFig2,
	"3":          (*Suite).planFig3,
	"4":          (*Suite).planFig4,
	"5":          (*Suite).planFig5,
	"8":          (*Suite).planFig8,
	"9":          (*Suite).planFig9,
	"10":         (*Suite).planFig10,
	"11":         (*Suite).planFig11,
	"12":         (*Suite).planFig12,
	"banked":     (*Suite).planBanked,
	"largepages": (*Suite).planLargePages,
	"energy":     (*Suite).planEnergy,
}

// cross pairs every generator with every config.
func cross(gens []workloads.Generator, cfgs ...core.Config) []RunRequest {
	out := make([]RunRequest, 0, len(gens)*len(cfgs))
	for _, g := range gens {
		for _, c := range cfgs {
			out = append(out, RunRequest{Workload: g.Name, Config: c})
		}
	}
	return out
}

func (s *Suite) planFig2() []RunRequest {
	var out []RunRequest
	for _, g := range s.gens {
		for _, size := range perCUTLBSizes {
			out = append(out, RunRequest{g.Name, fig2Config(size)})
		}
	}
	return out
}

func (s *Suite) planFig3() []RunRequest {
	return cross(s.gens, fig3Config())
}

func (s *Suite) planFig4() []RunRequest {
	return cross(s.gens, core.DesignIdeal(), baseline512Probed(), core.DesignBaseline16K())
}

func (s *Suite) planFig5() []RunRequest {
	out := cross(s.highBandwidth(), core.DesignIdeal())
	for _, bw := range fig5Bandwidths {
		out = append(out, cross(s.highBandwidth(), fig5Config(bw))...)
	}
	return out
}

func (s *Suite) planFig8() []RunRequest {
	return cross(s.gens, baseline512Probed(), core.DesignVCOpt())
}

func (s *Suite) planFig9() []RunRequest {
	return cross(s.gens, core.DesignIdeal(), baseline512Probed(),
		core.DesignBaseline16K(), core.DesignVC(), core.DesignVCOpt())
}

func (s *Suite) planFig10() []RunRequest {
	return cross(s.highBandwidth(), core.DesignBaselineLargePerCU(), core.DesignVCOpt())
}

func (s *Suite) planFig11() []RunRequest {
	return cross(s.gens, core.DesignBaseline16K(), core.DesignL1OnlyVC(32),
		core.DesignL1OnlyVC(128), core.DesignVCOpt())
}

func (s *Suite) planFig12() []RunRequest {
	return []RunRequest{{s.fig12Workload(), fig12Config()}}
}

func (s *Suite) planBanked() []RunRequest {
	return cross(s.highBandwidth(), append(bankedDesigns(), core.DesignIdeal())...)
}

func (s *Suite) planLargePages() []RunRequest {
	return cross(s.highBandwidth(), baseline512Probed(), largePagesConfig(), core.DesignVCOpt())
}

func (s *Suite) planEnergy() []RunRequest {
	return cross(s.highBandwidth(), baseline512Probed(), core.DesignVCOpt())
}

// Plan returns the union of the named experiments' runs, deduplicated by
// (workload, config) like Run's memo, in a stable first-requested order.
// Unknown ids and ids that need no suite runs contribute nothing.
func (s *Suite) Plan(ids ...string) []RunRequest {
	seen := make(map[RunRequest]bool)
	var out []RunRequest
	for _, id := range ids {
		plan, ok := planners[id]
		if !ok {
			continue
		}
		for _, r := range plan(s) {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
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
// only the scheduling changes.
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
