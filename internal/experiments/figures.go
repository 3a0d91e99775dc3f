package experiments

import (
	"fmt"
	"strings"

	"vcache/internal/core"
	"vcache/internal/report"
	"vcache/internal/workloads"
)

// perCUTLBSizes is the Figure 2 sweep (0 = infinite).
var perCUTLBSizes = []int{32, 64, 128, 0}

// fig2Config is the Figure 2 design point at one per-CU TLB size.
func fig2Config(size int) core.Config {
	cfg := baseline512Probed()
	if size != 32 {
		cfg = cfg.WithPerCUTLB(size)
		cfg.ProbeResidency = true
	}
	return cfg
}

func sizeLabel(n int) string {
	if n == 0 {
		return "inf"
	}
	return fmt.Sprintf("%d", n)
}

// ---------------------------------------------------------------------------
// Tables 1 and 2 (configuration listings).

// Table1 renders the simulation configuration (paper Table 1).
func Table1() string {
	cfg := core.DefaultConfig()
	t := &report.Table{
		Title:   "Table 1. Simulation configuration details.",
		Headers: []string{"Component", "Configuration"},
	}
	t.AddRow("GPU", fmt.Sprintf("%d CUs, %d lanes per CU, 700 MHz", cfg.GPU.NumCUs, cfg.GPU.Lanes))
	t.AddRow("L1 GPU Cache", fmt.Sprintf("per-CU %dKB, write-through no allocate", cfg.L1.SizeBytes/1024))
	t.AddRow("L2 GPU Cache", fmt.Sprintf("Shared %dMB, %d banks, write-back, %dB lines",
		cfg.L2.SizeBytes>>20, cfg.L2.Banks, cfg.L2.LineBytes))
	t.AddRow("TLBs", fmt.Sprintf("%d-entry per-CU TLBs (4 KB pages)", cfg.PerCUTLB.Entries))
	t.AddRow("IOMMU", fmt.Sprintf("Shared TLB (512-entry or 16K-entry), %d concurrent PTW, %dKB page-walk cache",
		cfg.IOMMU.Walker.Threads, cfg.IOMMU.Walker.PWCSizeBytes/1024))
	t.AddRow("DRAM", fmt.Sprintf("~192 GB/s (%d lines/cycle), %d-cycle latency", cfg.DRAM.LinesPerCycle, cfg.DRAM.Latency))
	t.AddRow("Interconnect", fmt.Sprintf("dance-hall GPU NoC (%d cy), CU-IOMMU %d cy, L2-IOMMU %d cy, FBT lookup %d cy",
		cfg.Lat.CUToL2, cfg.Lat.CUToIOMMU, cfg.Lat.L2ToIOMMU, cfg.IOMMU.FBTLatency))
	return t.Render()
}

// Table2 renders the evaluated MMU designs (paper Table 2).
func Table2() string {
	t := &report.Table{
		Title:   "Table 2. Evaluated MMU design configurations.",
		Headers: []string{"Design", "Per-CU TLB", "IOMMU TLB", "B/W Limit"},
	}
	t.AddRow("IDEAL MMU", "Infinite size", "Infinite size", "Infinite")
	t.AddRow("Baseline 512", "32-entry", "512-entry", "1 Access/Cycle")
	t.AddRow("Baseline 16K", "32-entry", "16K-entry", "1 Access/Cycle")
	t.AddRow("VC W/O OPT", "-", "512-entry", "1 Access/Cycle")
	t.AddRow("VC With OPT", "-", "+16K-entry FBT", "1 Access/Cycle")
	return t.Render()
}

// ---------------------------------------------------------------------------
// Figure 2: breakdown of per-CU TLB miss accesses.

// Fig2Row is one bar: a workload at one per-CU TLB size.
type Fig2Row struct {
	Workload  string
	TLBSize   int // 0 = infinite
	MissRatio float64
	// Shares of *all TLB accesses* whose miss found data in the L1, the
	// L2, or neither (the three bar segments; they sum to MissRatio).
	L1Share, L2Share, MemShare float64
	// FilteredOfMisses is (L1+L2 hits)/misses — the fraction a virtual
	// cache hierarchy would filter.
	FilteredOfMisses float64
}

// Fig2 sweeps per-CU TLB sizes over every workload.
func (s *Suite) Fig2() ([]Fig2Row, string) {
	var rows []Fig2Row
	for _, g := range s.gens {
		for _, size := range perCUTLBSizes {
			r := s.Run(g.Name, fig2Config(size))
			p := r.Probe
			acc := r.PerCUTLB.Accesses()
			row := Fig2Row{Workload: g.Name, TLBSize: size, MissRatio: r.PerCUTLBMissRatio()}
			if acc > 0 {
				row.L1Share = float64(p.L1Hit) / float64(acc)
				row.L2Share = float64(p.L2Hit) / float64(acc)
				row.MemShare = float64(p.MemAccess) / float64(acc)
			}
			row.FilteredOfMisses = p.FilteredRatio()
			rows = append(rows, row)
		}
	}
	t := &report.Table{
		Title: "Figure 2. Breakdown of per-CU TLB miss accesses by TLB size.\n" +
			"Bar: miss ratio split by where the missing access's data resides\n" +
			"(#: L1 hit, +: L2 hit, .: L2 miss / memory).",
		Headers: []string{"Workload", "TLB", "MissRatio", "L1-hit", "L2-hit", "Mem", "Filtered", "Bar (0-100%)"},
	}
	var filteredAll []float64
	for _, r := range rows {
		bar := report.StackedBar([]float64{r.L1Share, r.L2Share, r.MemShare}, []rune{'#', '+', '.'}, 1.0, 40)
		t.AddRow(r.Workload, sizeLabel(r.TLBSize), report.Pct(r.MissRatio),
			report.Pct(r.L1Share), report.Pct(r.L2Share), report.Pct(r.MemShare),
			report.Pct(r.FilteredOfMisses), bar)
		if r.TLBSize == 32 {
			filteredAll = append(filteredAll, r.FilteredOfMisses)
		}
	}
	out := t.Render()
	out += fmt.Sprintf("\nAverage fraction of 32-entry per-CU TLB misses filtered by a virtual cache hierarchy: %s (paper: ~66%%)\n",
		report.Pct(mean(filteredAll)))
	return rows, out
}

// ---------------------------------------------------------------------------
// Figure 3: IOMMU TLB access rate with unlimited IOMMU bandwidth.

// Fig3Row summarizes one workload's shared-TLB access rate.
type Fig3Row struct {
	Workload       string
	Mean, Std, Max float64
	FracAbove1     float64
}

// fig3Config is Baseline 512 with the IOMMU bandwidth limit removed.
func fig3Config() core.Config {
	cfg := baseline512Probed().WithIOMMUBandwidth(0)
	cfg.Name = "Baseline 512 (unlimited IOMMU BW)"
	return cfg
}

// Fig3 measures IOMMU TLB accesses/cycle with no bandwidth limit.
func (s *Suite) Fig3() ([]Fig3Row, string) {
	cfg := fig3Config()
	byName := map[string]Fig3Row{}
	means := map[string]float64{}
	var names []string
	for _, g := range s.gens {
		r := s.Run(g.Name, cfg)
		row := Fig3Row{Workload: g.Name, Mean: r.IOMMURate.Mean, Std: r.IOMMURate.StdDev,
			Max: r.IOMMURate.Max, FracAbove1: r.IOMMUFracAbove1}
		byName[g.Name] = row
		means[g.Name] = row.Mean
		names = append(names, g.Name)
	}
	sortByDesc(names, means)
	t := &report.Table{
		Title:   "Figure 3. IOMMU TLB accesses per cycle (32-entry per-CU TLBs, unlimited IOMMU bandwidth).",
		Headers: []string{"Workload", "Mean", "StdDev", "Max", ">1/cy windows", "Bar (mean)"},
	}
	var rows []Fig3Row
	var maxMean float64
	for _, n := range names {
		if byName[n].Mean > maxMean {
			maxMean = byName[n].Mean
		}
	}
	if maxMean == 0 {
		maxMean = 1
	}
	for _, n := range names {
		r := byName[n]
		rows = append(rows, r)
		t.AddRow(r.Workload, report.F(r.Mean), report.F(r.Std), report.F2(r.Max),
			report.Pct(r.FracAbove1), report.Bar(r.Mean, maxMean, 40))
	}
	return rows, t.Render()
}

// ---------------------------------------------------------------------------
// Figure 4: address translation overhead across all workloads.

// Fig4Data holds mean relative execution times (IDEAL = 1.0).
type Fig4Data struct {
	Baseline512 float64
	Baseline16K float64
}

// Fig4 compares the baselines against the ideal MMU over all workloads.
func (s *Suite) Fig4() (Fig4Data, string) {
	var b512, b16k []float64
	for _, g := range s.gens {
		ideal := s.Run(g.Name, core.DesignIdeal())
		b512 = append(b512, s.Run(g.Name, baseline512Probed()).RelativeTime(ideal))
		b16k = append(b16k, s.Run(g.Name, core.DesignBaseline16K()).RelativeTime(ideal))
	}
	d := Fig4Data{Baseline512: mean(b512), Baseline16K: mean(b16k)}
	t := &report.Table{
		Title:   "Figure 4. GPU address translation overheads, all workloads (relative execution time, IDEAL = 100%).",
		Headers: []string{"Design", "Relative time", "Bar"},
	}
	maxV := d.Baseline512
	if d.Baseline16K > maxV {
		maxV = d.Baseline16K
	}
	if maxV < 1 {
		maxV = 1
	}
	t.AddRow("IDEAL MMU", "100.0%", report.Bar(1, maxV, 40))
	t.AddRow("Small IOMMU TLB (512)", report.Pct(d.Baseline512), report.Bar(d.Baseline512, maxV, 40))
	t.AddRow("Large IOMMU TLB (16K)", report.Pct(d.Baseline16K), report.Bar(d.Baseline16K, maxV, 40))
	return d, t.Render()
}

// ---------------------------------------------------------------------------
// Figure 5: serialization overhead vs IOMMU TLB bandwidth.

// Fig5Row is mean relative time at one peak bandwidth.
type Fig5Row struct {
	Bandwidth    int
	RelativeTime float64
}

// fig5Bandwidths is the Figure 5 peak-bandwidth sweep.
var fig5Bandwidths = []int{1, 2, 3, 4}

// fig5Config is Baseline 16K at one IOMMU lookup bandwidth.
func fig5Config(bw int) core.Config {
	cfg := core.DesignBaseline16K().WithIOMMUBandwidth(bw)
	if bw != 1 {
		cfg.Name = fmt.Sprintf("Baseline 16K (BW %d)", bw)
	}
	return cfg
}

// Fig5 sweeps the IOMMU lookup bandwidth for high-translation-bandwidth
// workloads with a 16K shared TLB (isolating serialization from capacity).
func (s *Suite) Fig5() ([]Fig5Row, string) {
	var rows []Fig5Row
	for _, bw := range fig5Bandwidths {
		cfg := fig5Config(bw)
		var rel []float64
		for _, g := range s.highBandwidth() {
			ideal := s.Run(g.Name, core.DesignIdeal())
			rel = append(rel, s.Run(g.Name, cfg).RelativeTime(ideal))
		}
		rows = append(rows, Fig5Row{Bandwidth: bw, RelativeTime: mean(rel)})
	}
	t := &report.Table{
		Title: "Figure 5. Impact of the IOMMU TLB bandwidth limit (high translation bandwidth workloads,\n" +
			"16K-entry IOMMU TLB; serialization overhead = relative time - 100%).",
		Headers: []string{"Peak BW (acc/cy)", "Relative time", "Serialization overhead", "Bar"},
	}
	maxV := rows[0].RelativeTime
	if maxV < 1 {
		maxV = 1
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Bandwidth), report.Pct(r.RelativeTime),
			report.Pct(r.RelativeTime-1), report.Bar(r.RelativeTime, maxV, 40))
	}
	return rows, t.Render()
}

// ---------------------------------------------------------------------------
// Figure 8: IOMMU access-rate reduction from the virtual cache hierarchy.

// Fig8Row compares baseline and VC shared-TLB traffic for one workload:
// access rates (the paper's y-axis) and request totals (rates mislead when
// the VC also shortens the run several-fold).
type Fig8Row struct {
	Workload                  string
	BaselineMean, BaselineStd float64
	VCMean, VCStd             float64
	BaselineReqs, VCReqs      uint64
	HighBandwidth             bool
}

// TotalReduction returns the reduction in total shared-TLB requests.
func (r Fig8Row) TotalReduction() float64 {
	if r.BaselineReqs == 0 {
		return 0
	}
	return 1 - float64(r.VCReqs)/float64(r.BaselineReqs)
}

// Fig8 measures shared-TLB lookups, baseline vs virtual caches.
func (s *Suite) Fig8() ([]Fig8Row, string) {
	var rows []Fig8Row
	var reductionHB []float64
	for _, g := range s.gens {
		base := s.Run(g.Name, baseline512Probed())
		vc := s.Run(g.Name, core.DesignVCOpt())
		row := Fig8Row{
			Workload:     g.Name,
			BaselineMean: base.IOMMURate.Mean, BaselineStd: base.IOMMURate.StdDev,
			VCMean: vc.IOMMURate.Mean, VCStd: vc.IOMMURate.StdDev,
			BaselineReqs: base.IOMMU.Requests, VCReqs: vc.IOMMU.Requests,
			HighBandwidth: g.HighBandwidth,
		}
		rows = append(rows, row)
		if g.HighBandwidth && row.BaselineReqs > 0 {
			reductionHB = append(reductionHB, row.TotalReduction())
		}
	}
	t := &report.Table{
		Title: "Figure 8. Bandwidth reduction of IOMMU TLB.\n" +
			"Rates are per cycle of each design's own runtime (the VC also runs\n" +
			"several times faster, so total requests tell the filtering story).",
		Headers: []string{"Workload", "Base acc/cy", "VC acc/cy", "Base reqs", "VC reqs", "Total reduction", "Bar (VC reqs vs base)"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, report.F(r.BaselineMean), report.F(r.VCMean),
			report.I(r.BaselineReqs), report.I(r.VCReqs), report.Pct(r.TotalReduction()),
			report.Bar(float64(r.VCReqs), float64(r.BaselineReqs), 30))
	}
	out := t.Render()
	out += fmt.Sprintf("\nAverage reduction in total shared-TLB requests, high-bandwidth workloads: %s\n"+
		"(the paper filters ~66%% of TLB misses; low-bandwidth workloads may issue more\n"+
		"per-line VC translations than per-page TLB misses, but stay far below the\n"+
		"1-lookup/cycle port bandwidth, so — as in the paper — they see no degradation)\n",
		report.Pct(mean(reductionHB)))
	return rows, out
}

// ---------------------------------------------------------------------------
// Figure 9: end-to-end performance relative to the IDEAL MMU.

// Fig9Row is one workload's performance (IDEAL = 1.0, higher is better).
type Fig9Row struct {
	Workload                         string
	Base512, Base16K, VCNoOpt, VCOpt float64
}

// Fig9 reports performance relative to IDEAL for the high-bandwidth
// workloads plus the all-workload average.
func (s *Suite) Fig9() ([]Fig9Row, string) {
	perf := func(wl string, cfg core.Config) float64 {
		ideal := s.Run(wl, core.DesignIdeal())
		return ideal.RelativeTime(s.Run(wl, cfg)) // ideal.Cycles / design.Cycles
	}
	var rows []Fig9Row
	for _, g := range s.highBandwidth() {
		rows = append(rows, Fig9Row{
			Workload: g.Name,
			Base512:  perf(g.Name, baseline512Probed()),
			Base16K:  perf(g.Name, core.DesignBaseline16K()),
			VCNoOpt:  perf(g.Name, core.DesignVC()),
			VCOpt:    perf(g.Name, core.DesignVCOpt()),
		})
	}
	var avg Fig9Row
	avg.Workload = "Average(ALL)"
	var a512, a16k, avc, avco []float64
	for _, g := range s.gens {
		a512 = append(a512, perf(g.Name, baseline512Probed()))
		a16k = append(a16k, perf(g.Name, core.DesignBaseline16K()))
		avc = append(avc, perf(g.Name, core.DesignVC()))
		avco = append(avco, perf(g.Name, core.DesignVCOpt()))
	}
	avg.Base512, avg.Base16K, avg.VCNoOpt, avg.VCOpt = mean(a512), mean(a16k), mean(avc), mean(avco)
	rows = append(rows, avg)

	t := &report.Table{
		Title:   "Figure 9. Performance relative to IDEAL MMU (1.00 = ideal; closer to 1.0 is better).",
		Headers: []string{"Workload", "Baseline 512", "Baseline 16K", "VC W/O OPT", "VC With OPT"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, report.F2(r.Base512), report.F2(r.Base16K), report.F2(r.VCNoOpt), report.F2(r.VCOpt))
	}
	out := t.Render()
	// §4.1 companion claim: FBT hit rate for shared-TLB misses.
	var fbtHit []float64
	for _, g := range s.gens {
		r := s.Run(g.Name, core.DesignVCOpt())
		if r.IOMMU.TLBMisses > 0 {
			fbtHit = append(fbtHit, float64(r.IOMMU.FBTHits)/float64(r.IOMMU.TLBMisses))
		}
	}
	out += fmt.Sprintf("\nShared-TLB misses resolved by the FBT (second-level TLB): %s on average (paper: ~74%%)\n",
		report.Pct(mean(fbtHit)))
	return rows, out
}

// ---------------------------------------------------------------------------
// Figure 10: comparison with large per-CU TLBs.

// Fig10Row is one workload's VC speedup over the 128-entry per-CU TLB
// baseline.
type Fig10Row struct {
	Workload string
	Speedup  float64
}

// Fig10 compares the VC hierarchy against 128-entry fully-associative
// per-CU TLBs with a 16K shared TLB.
func (s *Suite) Fig10() ([]Fig10Row, string) {
	var rows []Fig10Row
	var all []float64
	for _, g := range s.highBandwidth() {
		big := s.Run(g.Name, core.DesignBaselineLargePerCU())
		vc := s.Run(g.Name, core.DesignVCOpt())
		sp := vc.SpeedupOver(big)
		rows = append(rows, Fig10Row{Workload: g.Name, Speedup: sp})
		all = append(all, sp)
	}
	rows = append(rows, Fig10Row{Workload: "Average", Speedup: mean(all)})
	t := &report.Table{
		Title:   "Figure 10. Speedup of the VC hierarchy over larger (128-entry) per-CU TLBs + 16K IOMMU TLB.",
		Headers: []string{"Workload", "Speedup", "Bar"},
	}
	var maxV float64
	for _, r := range rows {
		if r.Speedup > maxV {
			maxV = r.Speedup
		}
	}
	for _, r := range rows {
		t.AddRow(r.Workload, report.F2(r.Speedup)+"x", report.Bar(r.Speedup, maxV, 40))
	}
	return rows, t.Render()
}

// ---------------------------------------------------------------------------
// Figure 11: L1-only virtual caches vs the whole hierarchy.

// Fig11Data holds average speedups relative to Baseline 16K.
type Fig11Data struct {
	L1Only32  float64
	L1Only128 float64
	FullVC    float64
}

// Fig11 compares L1-only virtual cache designs with the full hierarchy.
func (s *Suite) Fig11() (Fig11Data, string) {
	var s32, s128, sfull []float64
	for _, g := range s.gens {
		base := s.Run(g.Name, core.DesignBaseline16K())
		s32 = append(s32, s.Run(g.Name, core.DesignL1OnlyVC(32)).SpeedupOver(base))
		s128 = append(s128, s.Run(g.Name, core.DesignL1OnlyVC(128)).SpeedupOver(base))
		sfull = append(sfull, s.Run(g.Name, core.DesignVCOpt()).SpeedupOver(base))
	}
	d := Fig11Data{L1Only32: mean(s32), L1Only128: mean(s128), FullVC: mean(sfull)}
	t := &report.Table{
		Title:   "Figure 11. Speedup relative to Baseline 16K (all workloads).",
		Headers: []string{"Design", "Speedup", "Bar"},
	}
	maxV := d.FullVC
	if d.L1Only32 > maxV {
		maxV = d.L1Only32
	}
	if d.L1Only128 > maxV {
		maxV = d.L1Only128
	}
	t.AddRow("L1-Only VC (32)", report.F2(d.L1Only32)+"x", report.Bar(d.L1Only32, maxV, 40))
	t.AddRow("L1-Only VC (128)", report.F2(d.L1Only128)+"x", report.Bar(d.L1Only128, maxV, 40))
	t.AddRow("L1 & L2 VC", report.F2(d.FullVC)+"x", report.Bar(d.FullVC, maxV, 40))
	out := t.Render()
	if d.L1Only32 > 0 {
		out += fmt.Sprintf("\nWhole-hierarchy VC vs L1-only VC(32): %.2fx additional speedup (paper: 1.31x)\n",
			d.FullVC/d.L1Only32)
	}
	return d, out
}

// ---------------------------------------------------------------------------
// Figure 12 (appendix): lifetimes of pages in TLBs vs caches.

// Fig12Row is one point of the lifetime CDFs.
type Fig12Row struct {
	LifetimeNs float64
	TLBEntry   float64 // P(lifetime <= x)
	L1Data     float64
	L2Data     float64
}

// fig12Workloads is Figure 12's one subject: bfs, or the suite's first
// workload when bfs is not selected.
func (s *Suite) fig12Workloads() []workloads.Generator {
	for i, g := range s.gens {
		if g.Name == "bfs" {
			return s.gens[i : i+1]
		}
	}
	return s.gens[:1]
}

// fig12Config is Baseline 512 with lifetime tracking on.
func fig12Config() core.Config {
	cfg := baseline512Probed()
	cfg.Name = "Baseline 512 (lifetimes)"
	cfg.TrackLifetimes = true
	return cfg
}

// Fig12 records residence-time CDFs for the bfs workload (or the suite's
// first workload if bfs is not selected).
func (s *Suite) Fig12() ([]Fig12Row, string) {
	wl := s.fig12Workloads()[0].Name
	r := s.Run(wl, fig12Config())
	const cyclesPerNs = 0.7 // 700 MHz
	var rows []Fig12Row
	for ns := 0.0; ns <= 40000; ns += 2500 {
		cy := ns * cyclesPerNs
		rows = append(rows, Fig12Row{
			LifetimeNs: ns,
			TLBEntry:   r.Lifetimes.TLBEntries.At(cy),
			L1Data:     r.Lifetimes.L1Data.At(cy),
			L2Data:     r.Lifetimes.L2Data.At(cy),
		})
	}
	t := &report.Table{
		Title: fmt.Sprintf("Figure 12. Lifetime CDFs of per-CU TLB entries vs cache data (%s).\n"+
			"TLB entries die young; cache lines stay active far longer - the filtering opportunity.", wl),
		Headers: []string{"Lifetime (ns)", "TLB entry", "L1 data (active)", "L2 data (active)"},
	}
	for _, row := range rows {
		t.AddRow(fmt.Sprintf("%.0f", row.LifetimeNs), report.Pct(row.TLBEntry),
			report.Pct(row.L1Data), report.Pct(row.L2Data))
	}
	return rows, t.Render()
}

// ---------------------------------------------------------------------------

// Render runs one experiment by id and returns its text. The entry's
// simulations execute on the suite's worker pool first (see Precompute),
// so even a single figure's independent runs go wide; the serial render
// then reads memoized results in a deterministic order.
func (s *Suite) Render(id string) (string, error) {
	e, ok := lookup(id)
	if !ok {
		return "", fmt.Errorf("experiments: unknown figure %q (have %s; extras: %s)",
			id, strings.Join(Figures(), ", "), strings.Join(Extras(), ", "))
	}
	if err := s.Precompute(id); err != nil {
		return "", err
	}
	return e.render(s), nil
}

// RenderAll runs every experiment and concatenates the reports. The
// union of all figures' runs is precomputed up front so runs shared
// across figures parallelize together.
func (s *Suite) RenderAll() string {
	if err := s.Precompute(Figures()...); err != nil {
		panic(err)
	}
	var b strings.Builder
	for _, id := range Figures() {
		out, err := s.Render(id)
		if err != nil {
			panic(err)
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String()
}
