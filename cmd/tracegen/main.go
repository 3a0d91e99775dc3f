// Command tracegen generates workload traces and prints their memory
// characteristics: instruction counts, coalescing divergence, page
// footprints, scratchpad use — the properties that drive the paper's
// observations.
//
// Usage:
//
//	tracegen                                       # summarize all 15 workloads
//	tracegen -workload fw -v                       # per-CU stream lengths for one workload
//	tracegen -workload pagerank -scale 100 -o pr100.trace
//
// -o saves the trace as a v4 stream, the one trace file format: chunks are
// written as the generator emits instructions, so the trace is never
// materialized and peak memory stays bounded by -chunk-budget at any
// -scale. vcsim -tracefile replays the file; vcache.LoadTrace reads it
// whole.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vcache/internal/trace"
	"vcache/internal/workloads"
)

func main() {
	wl := flag.String("workload", "", "single workload to inspect (default: all)")
	scale := flag.Int("scale", 1, "workload input scale factor")
	seed := flag.Uint64("seed", 42, "synthetic input seed")
	cus := flag.Int("cus", 16, "number of compute units")
	warps := flag.Int("warps", 8, "warp contexts per CU")
	verbose := flag.Bool("v", false, "per-CU warp stream lengths")
	out := flag.String("o", "", "save the generated trace(s) to this file (single workload) or directory, streamed chunk by chunk")
	chunkBudget := flag.Int("chunk-budget", 0, "chunk byte budget for -o (0 = default 4MB)")
	compress := flag.Bool("compress", false, "flate-compress the chunk payloads of -o files")
	flag.Parse()

	p := workloads.Params{Scale: *scale, NumCUs: *cus, WarpsPerCU: *warps, Seed: *seed}
	gens := workloads.All()
	if *wl != "" {
		g, ok := workloads.ByName(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
			os.Exit(1)
		}
		gens = []workloads.Generator{g}
	}
	for _, g := range gens {
		if *out == "" {
			tr := g.Build(p)
			fmt.Println(workloads.DescribeSummary(g, tr.Summarize()))
			if *verbose {
				dump(len(tr.CUs), func(cu int) (int, uint64) {
					n := uint64(0)
					for _, w := range tr.CUs[cu].Warps {
						n += uint64(len(w))
					}
					return len(tr.CUs[cu].Warps), n
				})
			}
			continue
		}
		path := *out
		if len(gens) > 1 {
			path = filepath.Join(*out, g.Name+".trace")
		}
		if err := save(g, p, path, trace.ChunkOptions{Budget: *chunkBudget, Compress: *compress}, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// save streams one workload into a trace file and prints the same
// characteristics line as the in-memory path, computed from the writer's
// incremental summary; verbose reads the per-CU lengths back from the
// file's footer.
func save(g workloads.Generator, p workloads.Params, path string, opts trace.ChunkOptions, verbose bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	chunks := 0
	opts.OnChunk = func(index, storedBytes int) { chunks = index + 1 }
	sum, err := g.BuildChunked(p, f, opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	fmt.Println(workloads.DescribeSummary(g, sum))
	if verbose {
		c, err := trace.OpenCursorFile(path)
		if err != nil {
			return err
		}
		dump(c.NumCUs(), func(cu int) (int, uint64) {
			n := uint64(0)
			for w := 0; w < c.NumWarps(cu); w++ {
				n += c.WarpLen(cu, w)
			}
			return c.NumWarps(cu), n
		})
		c.Close()
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("    saved %s (%d chunks, %.1fMB)\n", path, chunks, float64(st.Size())/(1<<20))
	return nil
}

// dump prints each CU's warp-context count and instruction total.
func dump(numCUs int, cu func(i int) (warps int, insts uint64)) {
	for i := 0; i < numCUs; i++ {
		warps, insts := cu(i)
		fmt.Printf("    cu %2d: %d warp contexts, %d instructions total\n", i, warps, insts)
	}
}
