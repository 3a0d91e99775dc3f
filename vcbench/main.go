// Command vcbench is the repository's benchmark: five named workloads that
// exercise the simulator's layers differently, each measured end to end
// with tracing off, and a traced run that breaks host time down by layer.
//
// Usage, from the repository root (bash vcbench/run.sh builds and runs it
// there):
//
//	vcbench -workload all -seed 42 -out results.jsonl   # every workload, one child process each
//	vcbench -workload translate-perline -seconds 15     # one workload
//	vcbench -workload filter-vc -trace 1                # the traced run
//	vcbench -compare A.jsonl... -- B.jsonl...           # compare two sets of runs
//	vcbench -smoke                                      # tiny inputs, one sample each
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is a JSON object with the run's contract metrics
// (BENCHMARK.json at the repository root), and -out appends the run's full
// record as one JSON line. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(*bench) error
}

// catalog lists the workloads in the order -workload all runs them. Each
// entry builds fresh state, so a run never sees another's inputs.
func catalog() []workload {
	sim := func(s simulation) func(*bench) error {
		return func(b *bench) error { return runSimulation(b, s) }
	}
	churnParams := workloads.DefaultChurnParams()
	churnParams.Launches = 480
	return []workload{
		// 3,601 pages thrash the 512-entry per-CU TLBs: translation-bound.
		{"translate-perline", sim(&materialized{gen: "bfs",
			params: workloads.Params{Scale: 4, NumCUs: 16, WarpsPerCU: 8},
			design: core.DesignBaseline512()})},
		// Virtual caches and the FBT filter translation away.
		{"filter-vc", sim(&materialized{gen: "pagerank",
			params: workloads.Params{Scale: 2, NumCUs: 16, WarpsPerCU: 8},
			design: core.DesignVCOpt()})},
		// No translation at all: trace decode, warp refill and the engine.
		{"stream-ideal", sim(&streamed{gen: "pagerank",
			params: workloads.Params{Scale: 4, NumCUs: 16, WarpsPerCU: 8},
			design: core.DesignIdeal()})},
		// The same structures under inserts, retirements and shootdowns.
		{"tenant-churn", sim(&churn{params: churnParams,
			designs: []core.Config{core.DesignBaseline512(), core.DesignVCOptDSR()}})},
		// The daemon's path: admission, artifact cache, codec, HTTP/JSON.
		{"daemon-mix", runDaemonMix},
	}
}

func main() {
	runtime.GOMAXPROCS(2)
	if len(os.Args) == 2 && os.Args[1] == probeArg {
		if err := serveProbe(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", goldenSeed, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 15, "seconds one run measures")
	traceMode := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs and one sample per workload")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans as Chrome-trace JSON (default: a file in the temp directory)")
	out := flag.String("out", "", "append each run's full record as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare sets of -out files: -compare A... -- B..., with bounds from ./BENCHMARK.json")
	flag.Parse()
	o.traced = *traceMode != 0

	if *compare {
		code, err := runCompare("BENCHMARK.json", flag.Args(), os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	}
	if o.workload == "all" {
		if err := runAll(o, *traceMode, *out); err != nil {
			fatal(err)
		}
		return
	}
	rec, err := runWorkload(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	line, err := rec.resultLine(defs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcbench:", err)
	os.Exit(1)
}

// runWorkload runs one workload in this process and prints its metrics.
func runWorkload(o options, w io.Writer) (record, error) {
	var wl *workload
	for _, c := range catalog() {
		if c.name == o.workload {
			wl = &c
		}
	}
	if wl == nil {
		return record{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	b := newBench(o)
	defer b.cleanup()
	if o.seed == goldenSeed && !o.smoke {
		g, err := goldenDigest(o.workload)
		if err != nil {
			return record{}, err
		}
		b.golden = g
	}
	if err := wl.run(b); err != nil {
		return record{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	b.finish()
	b.rec.print(w)
	switch {
	case wl.name == "daemon-mix":
	case b.golden != "":
		fmt.Fprintf(w, "# %s digest %s matches golden.json\n", o.workload, b.first)
	default:
		fmt.Fprintf(w, "# %s digest %s unchecked (golden.json has seed %d at SimVersion %d only)\n",
			o.workload, b.first, goldenSeed, core.SimVersion)
	}
	if b.spans != nil {
		path := o.spans
		if path == "" {
			path = filepath.Join(os.TempDir(), fmt.Sprintf("vcbench-spans-%s-%d.json", o.workload, o.seed))
		}
		if err := b.spans.writeChrome(path); err != nil {
			return record{}, err
		}
		fmt.Fprintf(w, "# %s spans written to %s\n", o.workload, path)
	}
	return b.rec, nil
}

// runAll re-runs this binary once per workload, one after another, so
// each workload's peak RSS is its own child's and the parent stays small.
func runAll(o options, traceMode int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, wl := range catalog() {
		args := []string{"-workload", wl.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(traceMode)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "vcbench: %s: %v\n", wl.name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload(s) failed", failed)
	}
	return nil
}

func appendRecord(path string, rec record) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads the records of one or more -out files.
func readRecords(paths []string) ([]record, error) {
	var recs []record
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			recs = append(recs, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return recs, nil
}
