// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig all                 # every table and figure
//	experiments -fig 9 -fig 10           # specific figures
//	experiments -workloads pagerank,bfs  # restrict the workload set
//	experiments -scale 2 -seed 7         # bigger inputs, different seed
//	experiments -parallel 1              # serial execution (default: all cores)
//
// Independent (workload, design) simulations run concurrently on a worker
// pool (-parallel, default NumCPU). Each simulation is single-threaded
// and deterministic, so the figure text is byte-identical at any
// -parallel setting; only wall-clock time changes.
//
// Runs are incremental: traces and results are stored in a
// content-addressed on-disk cache (default out/cache, or $VCACHE_DIR, or
// -cache-dir), so re-running with unchanged inputs reloads results instead
// of resimulating and produces byte-identical output. -no-cache disables
// the cache, -cache-stats reports its traffic.
//
// Output is the text rendering of each table/figure; absolute numbers
// depend on the synthetic inputs, but the shapes track the paper (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"vcache/internal/artifact"
	"vcache/internal/experiments"
	"vcache/internal/obs"
	"vcache/internal/prof"
	"vcache/internal/workloads"
)

type figList []string

func (f *figList) String() string     { return strings.Join(*f, ",") }
func (f *figList) Set(v string) error { *f = append(*f, strings.Split(v, ",")...); return nil }

func main() {
	var figs figList
	flag.Var(&figs, "fig", "figure/table id to regenerate (repeatable; 'all' = everything)")
	scale := flag.Int("scale", 1, "workload input scale factor")
	seed := flag.Uint64("seed", 42, "synthetic input seed")
	cus := flag.Int("cus", 16, "number of compute units")
	warps := flag.Int("warps", 8, "warp contexts per CU")
	wl := flag.String("workloads", "", "comma-separated workload subset (default: all 15)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent simulations (1 = serial; results are identical either way)")
	intraParallel := flag.Int("intra-parallel", 0, "partitioned-engine worker threads inside each simulation (0 = auto split with -parallel; results are byte-identical at any value)")
	batched := flag.Bool("batched-translation", false, "warp-level batched translation front-end for every run (cached separately from legacy results; no-op for designs without per-CU TLBs)")
	tenantsFlag := flag.String("tenants", "", "comma-separated tenant counts for the churn figure (default 2,8,24)")
	quiet := flag.Bool("q", false, "suppress per-run progress on stderr")
	csvOut := flag.String("csv", "", "also dump every simulated run's metrics to this CSV file")
	churnCSVOut := flag.String("churn-csv", "", "dump the tenant-churn grid (-fig churn) to this CSV file")
	metricsOut := flag.String("metrics", "", "dump every run's end-of-run metrics registry to this JSONL file")
	eventsOut := flag.String("events", "", "write a Chrome-trace event file covering every run (one process per run)")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (default $VCACHE_DIR or out/cache)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk artifact cache")
	cacheStats := flag.Bool("cache-stats", false, "print artifact-cache traffic to stderr on exit")
	stream := flag.Bool("stream", false, "replay workloads from chunked (v4) streams: per-run memory stays bounded by the chunk budget; results are byte-identical")
	chunkBudget := flag.Int("chunk-budget", 0, "chunk byte budget for -stream (0 = default 4MB)")
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	p := workloads.Params{Scale: *scale, NumCUs: *cus, WarpsPerCU: *warps, Seed: *seed}
	var subset []string
	if *wl != "" {
		subset = strings.Split(*wl, ",")
	}
	suite, err := experiments.New(p, subset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	suite.Workers = *parallel
	suite.IntraWorkers = *intraParallel
	suite.BatchedTranslation = *batched
	if *tenantsFlag != "" {
		for _, s := range strings.Split(*tenantsFlag, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "experiments: bad -tenants value %q\n", s)
				os.Exit(1)
			}
			suite.ChurnTenants = append(suite.ChurnTenants, n)
		}
	}
	suite.StreamTraces = *stream
	suite.ChunkBudget = *chunkBudget
	if !*noCache {
		suite.Cache, err = artifact.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !*quiet {
		suite.Progress = experiments.ProgressWriter(os.Stderr)
	}
	suite.CaptureMetrics = *metricsOut != ""
	var eventsFile *os.File
	if *eventsOut != "" {
		eventsFile, err = os.Create(*eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		suite.EventTrace = obs.NewTraceWriter(eventsFile)
	}

	ids := []string(figs)
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	var expanded []string
	for _, id := range ids {
		switch id {
		case "all":
			expanded = append(expanded, experiments.Figures()...)
			expanded = append(expanded, experiments.Extras()...)
		case "paper":
			expanded = append(expanded, experiments.Figures()...)
		case "extras":
			expanded = append(expanded, experiments.Extras()...)
		default:
			expanded = append(expanded, id)
		}
	}
	ids = expanded
	// Execute the union of every requested figure's simulations on the
	// worker pool up front; rendering below then reads memoized results,
	// so the figure text is byte-identical at any -parallel setting.
	if err := suite.Precompute(ids...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, id := range ids {
		out, err := suite.Render(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := suite.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d runs to %s\n", suite.RunCount(), *csvOut)
	}

	if *churnCSVOut != "" {
		points, _ := suite.Churn()
		if err := os.WriteFile(*churnCSVOut, []byte(experiments.WriteChurnCSV(points)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d churn points to %s\n", len(points), *churnCSVOut)
	}

	if *metricsOut != "" {
		if err := writeMetrics(suite, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if suite.EventTrace != nil {
		if err := suite.EventTrace.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote event trace to %s\n", *eventsOut)
	}
	if *cacheStats && suite.Cache != nil {
		fmt.Fprintf(os.Stderr, "cache %s: %s\n", suite.Cache.Dir(), suite.Cache.Stats())
	}
}

// writeMetrics dumps each run's end-of-run registry snapshot as one JSONL
// record labeled with the run's workload and design, in sorted key order
// so the output is deterministic.
func writeMetrics(suite *experiments.Suite, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	keys := make([]string, 0, suite.RunCount())
	for k := range suite.Results() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	n := 0
	for _, k := range keys {
		wl, design, _ := strings.Cut(k, "\x00")
		snap, ok := suite.Metrics(wl, design)
		if !ok {
			continue
		}
		b = append(b[:0], fmt.Sprintf(`{"workload":%q,"design":%q,"snapshot":`, wl, design)...)
		b = snap.AppendJSON(b)
		b = append(b, "}\n"...)
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
		n++
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d metrics snapshots to %s\n", n, path)
	return nil
}
