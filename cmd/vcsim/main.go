// Command vcsim runs one workload under one or more MMU designs and
// prints each run's statistics — the quickest way to poke at the
// simulator.
//
// Usage:
//
//	vcsim -workload pagerank -design vc-opt
//	vcsim -workload bfs -design baseline-512 -scale 2
//	vcsim -workload fw -design baseline-512,vc-opt,ideal
//	vcsim -workload mis -design all -parallel 4
//	vcsim -list
//
// With several designs (comma-separated, or "all"), the simulations run
// concurrently on a worker pool (-parallel, default NumCPU) over the one
// shared immutable trace; each simulation is single-threaded and
// deterministic, and results print in the order the designs were named,
// followed by a side-by-side comparison table: cycles relative to the
// first ideal-MMU run (else the first design), translation traffic and
// hit ratios.
//
// Observability: -metrics FILE streams each run's interval metrics
// snapshots (per-component counter registry) as labeled JSONL, and
// -events FILE writes a Chrome-trace event file (one process per design)
// that loads into chrome://tracing or the Perfetto UI. Both are off by
// default and cost nothing when unused.
//
// Generated traces and simulation results are cached on disk (default
// out/cache, or $VCACHE_DIR, or -cache-dir) keyed by workload parameters
// and the full design config, so repeated invocations replay from the
// cache with byte-identical output. -no-cache disables this; -metrics and
// -events runs always simulate live.
//
// -stream replays the workload from a chunked (v4) trace stream instead
// of a materialized trace: per-run memory stays bounded by -chunk-budget
// (default 4MB) at any -scale, and results are byte-identical to the
// materialized path. -tracefile accepts both materialized (v3) and
// chunked (v4) files, auto-detected; write the latter with
// tracegen -chunked.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	apiv1 "vcache/api/v1"
	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/obs"
	"vcache/internal/prof"
	"vcache/internal/report"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

func main() {
	wl := flag.String("workload", "pagerank", "workload name")
	traceFile := flag.String("tracefile", "", "replay a saved trace instead of generating one")
	design := flag.String("design", "baseline-512",
		"MMU design(s), comma-separated or 'all': "+strings.Join(apiv1.Presets(), ", "))
	scale := flag.Int("scale", 1, "workload input scale factor")
	seed := flag.Uint64("seed", 42, "synthetic input seed")
	cus := flag.Int("cus", 16, "number of compute units")
	warps := flag.Int("warps", 8, "warp contexts per CU")
	probe := flag.Bool("probe", false, "classify TLB misses by data residency (Figure 2)")
	tlbEntries := flag.Int("tlb-entries", -1, "override per-CU TLB entries (0 = infinite, -1 = design default)")
	iommubw := flag.Int("iommubw", -1, "override IOMMU lookups/cycle (0 = unlimited)")
	largePages := flag.Bool("largepages", false, "back the workload with 2MB pages")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent simulations when several designs are given")
	intraParallel := flag.Int("intra-parallel", 1, "partitioned-engine worker threads inside each simulation (< 1 means 1; results are byte-identical at any value)")
	stream := flag.Bool("stream", false, "generate and replay the workload as a chunked (v4) stream: peak memory stays bounded by the chunk budget instead of the trace size; results are byte-identical")
	chunkBudget := flag.Int("chunk-budget", 0, "chunk byte budget for -stream (0 = default 4MB)")
	batched := flag.Bool("batched-translation", false, "warp-level batched translation front-end: page-chunk dedup, inline TLB hit peeling, bulk IOMMU miss submission (deterministic; no-op for designs without per-CU TLBs)")
	asJSON := flag.Bool("json", false, "emit the full Results struct as JSON (one document per design)")
	metricsOut := flag.String("metrics", "", "stream interval metrics-registry snapshots to this JSONL file (one labeled record per interval per design)")
	eventsOut := flag.String("events", "", "write cycle-stamped component events to this Chrome-trace file (one process per design)")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (default $VCACHE_DIR or out/cache)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk artifact cache")
	cacheStats := flag.Bool("cache-stats", false, "print artifact-cache traffic to stderr on exit")
	list := flag.Bool("list", false, "list workloads and designs")
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		fmt.Println("workloads:")
		for _, g := range workloads.All() {
			hb := ""
			if g.HighBandwidth {
				hb = " [high translation bandwidth]"
			}
			fmt.Printf("  %-14s (%s)%s\n", g.Name, g.Suite, hb)
		}
		fmt.Println("designs:")
		for _, d := range apiv1.Presets() {
			fmt.Printf("  %s\n", d)
		}
		return
	}

	names := strings.Split(*design, ",")
	if strings.ToLower(strings.TrimSpace(*design)) == "all" {
		names = apiv1.Presets()
	}
	var cfgs []core.Config
	for _, n := range names {
		cfg, ok := apiv1.PresetConfig(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown design %q (try -list)\n", n)
			os.Exit(1)
		}
		cfg.ProbeResidency = *probe
		cfg.LargePages = *largePages
		cfg.BatchedTranslation = *batched
		if *tlbEntries >= 0 {
			cfg = cfg.WithPerCUTLB(*tlbEntries)
		}
		if *iommubw >= 0 {
			cfg = cfg.WithIOMMUBandwidth(*iommubw)
		}
		cfgs = append(cfgs, cfg)
	}

	var cache *artifact.Cache
	if !*noCache {
		var err error
		cache, err = artifact.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Trace acquisition. Two front ends feed the simulations: a fully
	// materialized *trace.Trace, or — for -stream runs and chunked (v4)
	// trace files — a path that each simulation opens its own streaming
	// cursor over, so the whole trace is never resident.
	var tr *trace.Trace
	var streamPath string
	var s trace.Summary
	var traceKey artifact.Fingerprint
	haveKey := false
	switch {
	case *traceFile != "":
		// An explicit trace file has no derivable cache identity; replay it
		// as given and compute results live. The format is sniffed: v3
		// loads fully, v4 streams.
		chunked, err := trace.IsChunkedFile(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if chunked {
			streamPath = *traceFile
			cur, err := trace.OpenCursorFile(streamPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			s = cur.Summary()
			cur.Close()
		} else {
			var err error
			tr, err = trace.LoadFile(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			s = tr.Summarize()
		}
	case *stream:
		g, ok := workloads.ByName(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *wl)
			os.Exit(1)
		}
		p := workloads.Params{Scale: *scale, NumCUs: *cus, WarpsPerCU: *warps, Seed: *seed}
		traceKey, haveKey = artifact.TraceKey(g.Name, p), true
		var temp string
		var err error
		streamPath, temp, s, err = chunkedStreamPath(cache, g, p, *chunkBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if temp != "" {
			defer os.Remove(temp)
		}
	default:
		g, ok := workloads.ByName(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *wl)
			os.Exit(1)
		}
		p := workloads.Params{Scale: *scale, NumCUs: *cus, WarpsPerCU: *warps, Seed: *seed}
		traceKey, haveKey = artifact.TraceKey(g.Name, p), true
		if tr = cache.GetTrace(traceKey); tr == nil {
			tr = g.Build(p)
			cache.PutTrace(traceKey, tr)
		}
		s = tr.Summarize()
	}
	// Results can come from the cache only when nothing needs a live
	// simulation (metrics and event sinks do) and the trace identity is
	// known (a -tracefile trace isn't content-addressed). Streamed and
	// materialized runs share result keys: the front end never changes
	// results.
	useResultCache := cache != nil && haveKey && *metricsOut == "" && *eventsOut == ""
	wlName := s.Name
	fmt.Printf("workload %s: %d mem insts, %d coalesced lines, divergence %.2f, %d pages\n",
		wlName, s.MemInsts, s.CoalescedLines, s.Divergence, s.DistinctPages)

	// Observability sinks. Trace processes are allocated up front, in
	// design order, so pids are deterministic regardless of scheduling.
	var tw *obs.TraceWriter
	var eventsFile *os.File
	procs := make([]*obs.Process, len(cfgs))
	if *eventsOut != "" {
		var err error
		eventsFile, err = os.Create(*eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tw = obs.NewTraceWriter(eventsFile)
		for i, cfg := range cfgs {
			procs[i] = tw.Process(wlName + "/" + cfg.Name)
		}
	}
	snaps := make([][]obs.Snapshot, len(cfgs))

	// Fan the designs out over a worker pool; the trace is immutable and
	// each run builds its own System, so runs are independent.
	results := make([]core.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	infos := make([]core.IntraInfo, len(cfgs))
	live := make([]bool, len(cfgs))
	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	simStart := time.Now()
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg core.Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if useResultCache {
				if res, ok := cache.GetResults(artifact.ResultKey(traceKey, cfg)); ok {
					results[i] = res
					return
				}
			}
			sys, err := core.New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			opts := []core.Option{core.WithIntraParallelism(*intraParallel)}
			if procs[i] != nil {
				// As an option (not AttachTrace) so the partitioned run
				// serializes emitter writes to the shared trace file.
				opts = append(opts, core.WithEventTrace(procs[i]))
			}
			if *metricsOut != "" {
				opts = append(opts, core.WithMetricsSnapshot(func(s obs.Snapshot) {
					snaps[i] = append(snaps[i], s)
				}))
			}
			if streamPath != "" {
				// Each simulation streams through its own cursor: one
				// chunk resident (plus one prefetching) per run.
				cur, err := trace.OpenCursorFile(streamPath)
				if err != nil {
					errs[i] = err
					return
				}
				results[i], errs[i] = sys.RunCursor(context.Background(), cur, opts...)
				cur.Close()
			} else {
				results[i], errs[i] = sys.RunContext(context.Background(), tr, opts...)
			}
			infos[i], live[i] = sys.IntraInfo()
			if useResultCache && errs[i] == nil {
				cache.PutResults(artifact.ResultKey(traceKey, cfg), results[i])
			}
		}(i, cfg)
	}
	wg.Wait()
	simWall := time.Since(simStart)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	printSimSummary(os.Stderr, results, infos, live, simWall)

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, wlName, cfgs, snaps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote event trace to %s\n", *eventsOut)
	}

	for i, r := range results {
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(r); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		printResults(r, *probe)
	}
	if !*asJSON && len(results) > 1 {
		fmt.Println()
		fmt.Println(comparison(results))
	}
	if *cacheStats && cache != nil {
		fmt.Fprintf(os.Stderr, "cache %s: %s\n", cache.Dir(), cache.Stats())
	}
}

// chunkedStreamPath materializes the workload's chunked (v4) stream on
// disk and returns its path. With a cache the stream lives in (and is
// reused from) the ctrace artifact kind; without one it is generated into
// a temp file, returned as temp for the caller to remove. Generation
// writes chunks as the generator emits instructions, so even 100x-scale
// workloads never hold the whole trace in memory.
func chunkedStreamPath(cache *artifact.Cache, g workloads.Generator, p workloads.Params, budget int) (path, temp string, s trace.Summary, err error) {
	opts := trace.ChunkOptions{Budget: budget}
	if cache != nil {
		key := artifact.ChunkedTraceKey(g.Name, p)
		if path, ok := cache.ChunkedTracePath(key); ok {
			cur, err := trace.OpenCursorFile(path)
			if err != nil {
				return "", "", trace.Summary{}, err
			}
			s = cur.Summary()
			cur.Close()
			return path, "", s, nil
		}
		if path, ok := cache.PutChunkedTrace(key, func(w io.Writer) error {
			s, err = g.BuildChunked(p, w, opts)
			return err
		}); ok {
			return path, "", s, nil
		}
		// Fall through to a temp file on cache-write failure.
	}
	f, err := os.CreateTemp("", "vcsim-"+g.Name+"-*.ctrace")
	if err != nil {
		return "", "", trace.Summary{}, err
	}
	s, err = g.BuildChunked(p, f, opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", "", trace.Summary{}, err
	}
	return f.Name(), f.Name(), s, nil
}

// printSimSummary emits the one-line completion summary for the
// simulations that ran live (cached results report nothing). Written to
// stderr so stdout stays byte-identical across worker counts and cache
// states.
func printSimSummary(w io.Writer, results []core.Results, infos []core.IntraInfo, live []bool, wall time.Duration) {
	var cycles, events uint64
	n := 0
	var ref core.IntraInfo
	for i := range infos {
		if !live[i] {
			continue
		}
		n++
		cycles += results[i].Cycles
		events += infos[i].Events
		ref = infos[i]
	}
	if n == 0 {
		return
	}
	rate := float64(events) / wall.Seconds() / 1e6
	fmt.Fprintf(w, "simulated %d run(s) in %.2fs: %d cycles, %d events (%.1fM events/s), %d partitions, window %d, %d worker(s)\n",
		n, wall.Seconds(), cycles, events, rate, ref.Partitions, ref.Window, ref.Workers)
	if ref.SerialReason != "" {
		fmt.Fprintf(w, "note: worker count forced to 1: %s\n", ref.SerialReason)
	}
}

// writeMetrics dumps every design's interval snapshot series, one labeled
// JSONL record per snapshot, in design order.
func writeMetrics(path, workload string, cfgs []core.Config, snaps [][]obs.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var b []byte
	n := 0
	for i, cfg := range cfgs {
		for _, snap := range snaps[i] {
			b = append(b[:0], fmt.Sprintf(`{"workload":%q,"design":%q,"snapshot":`, workload, cfg.Name)...)
			b = snap.AppendJSON(b)
			b = append(b, "}\n"...)
			if _, err := f.Write(b); err != nil {
				f.Close()
				return err
			}
			n++
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d metrics snapshots to %s\n", n, path)
	return nil
}

// comparison renders the designs side by side, with cycles relative to
// the first ideal-MMU run, or to the first design when none is ideal.
func comparison(results []core.Results) string {
	base := results[0]
	for _, r := range results {
		if r.Kind == core.IdealMMU {
			base = r
			break
		}
	}
	t := &report.Table{
		Headers: []string{"design", "cycles", "vs " + base.Design, "IOMMU reqs", "acc/cy",
			"walks", "q-delay p95", "L1 hit", "L2 hit", "DRAM rd"},
	}
	for _, r := range results {
		t.AddRow(r.Design,
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.2fx", r.RelativeTime(base)),
			fmt.Sprintf("%d", r.IOMMU.Requests),
			fmt.Sprintf("%.3f", r.IOMMURate.Mean),
			fmt.Sprintf("%d", r.IOMMU.Walks),
			fmt.Sprintf("%.0f", r.IOMMUDelayP95),
			report.Pct(r.L1.HitRatio()),
			report.Pct(r.L2.HitRatio()),
			fmt.Sprintf("%d", r.DRAM.Reads))
	}
	return t.Render()
}

func printResults(r core.Results, probe bool) {
	fmt.Printf("design   %s (%v)\n", r.Design, r.Kind)
	fmt.Printf("cycles   %d (%.3f ms at 700 MHz)\n", r.Cycles, float64(r.Cycles)/700e3)
	if r.PerCUTLB.Accesses() > 0 {
		fmt.Printf("per-CU TLB   %d accesses, miss ratio %.1f%%\n",
			r.PerCUTLB.Accesses(), 100*r.PerCUTLBMissRatio())
	}
	fmt.Printf("IOMMU    %d requests (%.3f/cycle mean, %.2f max), %d shared-TLB misses, %d walks, queue delay %d cy\n",
		r.IOMMU.Requests, r.IOMMURate.Mean, r.IOMMURate.Max, r.IOMMU.TLBMisses, r.IOMMU.Walks, r.IOMMU.QueueDelay)
	if r.IOMMU.Requests > 0 {
		fmt.Printf("IOMMU serialization delay: p50 %.0f, p95 %.0f, p99 %.0f cycles\n",
			r.IOMMUDelayP50, r.IOMMUDelayP95, r.IOMMUDelayP99)
	}
	if r.IOMMU.FBTHits > 0 {
		fmt.Printf("FBT as L2 TLB: %d hits of %d shared-TLB misses\n", r.IOMMU.FBTHits, r.IOMMU.TLBMisses)
	}
	fmt.Printf("L1       hit ratio %.1f%%   L2 hit ratio %.1f%% (%d distinct pages resident at peak)\n",
		100*r.L1.HitRatio(), 100*r.L2.HitRatio(), r.L2DistinctPages)
	fmt.Printf("L2       rd %d/%d (hit/miss), wr %d/%d, fills %d, evict %d, wb %d; merges tlb=%d line=%d\n",
		r.L2.ReadHits, r.L2.ReadMisses, r.L2.WriteHits, r.L2.WriteMisses,
		r.L2.Fills, r.L2.Evictions, r.L2.Writebacks, r.TLBMerges, r.LineMerges)
	fmt.Printf("DRAM     %d reads, %d writes\n", r.DRAM.Reads, r.DRAM.Writes)
	if len(r.IOMMUSamples) > 1 {
		fmt.Printf("IOMMU accesses/cycle over time (max %.2f):\n  %s\n",
			r.IOMMURate.Max, report.Sparkline(report.Downsample(r.IOMMUSamples, 72)))
	}
	if r.Kind == core.VirtualHierarchy {
		fmt.Printf("FBT      %d allocations, %d evictions, %d synonym accesses, %d RW-synonym faults\n",
			r.FBT.Allocations, r.FBT.Evictions, r.FBT.SynonymAccesses, r.FBT.RWSynonymFaults)
	}
	if probe && r.Probe.TLBMisses > 0 {
		p := r.Probe
		fmt.Printf("TLB-miss residency: %d misses -> %.1f%% L1-hit, %.1f%% L2-hit, %.1f%% memory (filtered: %.1f%%)\n",
			p.TLBMisses,
			100*float64(p.L1Hit)/float64(p.TLBMisses),
			100*float64(p.L2Hit)/float64(p.TLBMisses),
			100*float64(p.MemAccess)/float64(p.TLBMisses),
			100*p.FilteredRatio())
	}
	if r.Faults != (core.FaultCounts{}) {
		fmt.Printf("faults   %+v\n", r.Faults)
	}
}
