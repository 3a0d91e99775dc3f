// Command vcdiff runs one workload under several MMU designs and prints a
// side-by-side comparison — the fastest way to see where a design's time
// and translation traffic go.
//
// Usage:
//
//	vcdiff -workload color_max
//	vcdiff -workload bfs -designs ideal,baseline-512,vc-opt -scale 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	apiv1 "vcache/api/v1"
	"vcache/internal/core"
	"vcache/internal/report"
	"vcache/internal/workloads"
)

func main() {
	wl := flag.String("workload", "pagerank", "workload name")
	list := flag.String("designs", "ideal,baseline-512,baseline-16k,vc,vc-opt",
		"comma-separated designs to compare")
	scale := flag.Int("scale", 1, "workload input scale factor")
	seed := flag.Uint64("seed", 42, "synthetic input seed")
	cus := flag.Int("cus", 16, "number of compute units")
	warps := flag.Int("warps", 8, "warp contexts per CU")
	flag.Parse()

	g, ok := workloads.ByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(1)
	}
	p := workloads.Params{Scale: *scale, NumCUs: *cus, WarpsPerCU: *warps, Seed: *seed}
	tr := g.Build(p)
	sum := tr.Summarize()
	fmt.Printf("%s: %d memory instructions, %d pages, divergence %.2f\n\n",
		tr.Name, sum.MemInsts, sum.DistinctPages, sum.Divergence)

	var results []core.Results
	var base *core.Results
	for _, name := range strings.Split(*list, ",") {
		cfg, ok := apiv1.PresetConfig(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown design %q (have: %s)\n", name, strings.Join(apiv1.Presets(), ", "))
			os.Exit(1)
		}
		r := core.MustRun(cfg, tr)
		results = append(results, r)
		if r.Kind == core.IdealMMU && base == nil {
			base = &r
		}
	}
	if base == nil {
		base = &results[0]
	}

	t := &report.Table{
		Headers: []string{"design", "cycles", "vs " + base.Design, "IOMMU reqs", "acc/cy",
			"walks", "q-delay p95", "L1 hit", "L2 hit", "DRAM rd"},
	}
	for _, r := range results {
		t.AddRow(r.Design,
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.2fx", r.RelativeTime(*base)),
			fmt.Sprintf("%d", r.IOMMU.Requests),
			fmt.Sprintf("%.3f", r.IOMMURate.Mean),
			fmt.Sprintf("%d", r.IOMMU.Walks),
			fmt.Sprintf("%.0f", r.IOMMUDelayP95),
			report.Pct(r.L1.HitRatio()),
			report.Pct(r.L2.HitRatio()),
			fmt.Sprintf("%d", r.DRAM.Reads))
	}
	fmt.Println(t.Render())

	fmt.Println("IOMMU accesses/cycle timelines:")
	for _, r := range results {
		if len(r.IOMMUSamples) > 1 {
			fmt.Printf("  %-22s %s\n", r.Design, report.Sparkline(report.Downsample(r.IOMMUSamples, 60)))
		}
	}
}
