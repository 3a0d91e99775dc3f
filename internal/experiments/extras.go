package experiments

import (
	"fmt"

	"vcache/internal/area"
	"vcache/internal/core"
	"vcache/internal/energy"
	"vcache/internal/memory"
	"vcache/internal/report"
	"vcache/internal/trace"
)

// Area renders the §4.3 storage accounting.
func Area() string {
	r := area.Model(area.DefaultParams())
	t := &report.Table{
		Title:   "Area requirements (paper §4.3).",
		Headers: []string{"Structure", "Size", "Notes"},
	}
	t.AddRow("Backward table (16K entries)", fmt.Sprintf("%.0fKB", r.BT.KB()),
		fmt.Sprintf("%d bits/entry (paper: ~190KB)", r.BTEntryBits))
	t.AddRow("Forward table", fmt.Sprintf("%.0fKB", r.FT.KB()),
		fmt.Sprintf("%d bits/entry (paper: ~80KB)", r.FTEntryBits))
	t.AddRow("FBT total", fmt.Sprintf("%.0fKB", r.FBT.KB()),
		fmt.Sprintf("%.1f%% of the cache hierarchy (paper: ~7.5%%)", 100*r.FBTOverheadRatio))
	t.AddRow("Per-CU invalidation filter", fmt.Sprintf("%.1fKB", r.FilterPerCU.KB()),
		fmt.Sprintf("%.1f%% of a 32KB L1 (paper: <3%%)", 100*r.FilterRatioOfL1))
	t.AddRow("Extra line tag/permission bits", fmt.Sprintf("%.0fKB", r.ExtraTagTotal.KB()),
		fmt.Sprintf("%.1f%% of the hierarchy (paper: ~1%%)", 100*r.TagOverheadRatio))
	return t.Render()
}

// BankedRow compares ways of adding shared-TLB bandwidth.
type BankedRow struct {
	Design       string
	RelativeTime float64
	QueueDelay   uint64
}

// bankedDesigns lists the §3.2 alternative designs in render order.
func bankedDesigns() []core.Config {
	banked := core.DesignBaseline16K()
	banked.Name = "Baseline 16K (4 banks)"
	banked.IOMMU.Banks = 4

	wide := core.DesignBaseline16K().WithIOMMUBandwidth(4)
	wide.Name = "Baseline 16K (4-wide port)"

	return []core.Config{core.DesignBaseline16K(), banked, wide, core.DesignVCOpt()}
}

// Banked runs the §3.2 alternative study on the high-bandwidth subset:
// a 4-banked shared TLB (bank conflicts) vs a true 4-wide port vs the
// virtual cache hierarchy, all against the ideal MMU.
func (s *Suite) Banked() ([]BankedRow, string) {
	designs := bankedDesigns()
	var rows []BankedRow
	for _, cfg := range designs {
		var rel []float64
		var qd uint64
		for _, g := range s.highBandwidth() {
			ideal := s.Run(g.Name, core.DesignIdeal())
			r := s.Run(g.Name, cfg)
			rel = append(rel, r.RelativeTime(ideal))
			qd += r.IOMMU.QueueDelay
		}
		rows = append(rows, BankedRow{Design: cfg.Name, RelativeTime: mean(rel), QueueDelay: qd})
	}
	t := &report.Table{
		Title: "Multi-banked IOMMU TLB study (paper §3.2): banking adds bandwidth only\n" +
			"when bank conflicts are rare; the VC filters the traffic instead.",
		Headers: []string{"Design", "Relative time", "Total queue delay", "Bar"},
	}
	maxV := rows[0].RelativeTime
	for _, r := range rows {
		if r.RelativeTime > maxV {
			maxV = r.RelativeTime
		}
	}
	for _, r := range rows {
		t.AddRow(r.Design, report.Pct(r.RelativeTime), report.I(r.QueueDelay),
			report.Bar(r.RelativeTime, maxV, 40))
	}
	return rows, t.Render()
}

// LargePagesRow compares 4KB and 2MB backing.
type LargePagesRow struct {
	Workload    string
	MissRatio4K float64
	MissRatio2M float64
	Speedup     float64 // 2MB baseline over 4KB baseline
	VCOverLarge float64 // VC (4KB) over 2MB baseline
}

// largePagesConfig is Baseline 512 backed by 2MB pages.
func largePagesConfig() core.Config {
	large := baseline512Probed()
	large.Name = "Baseline 512 (2MB pages)"
	large.LargePages = true
	return large
}

// LargePages runs the §3.2 large-page discussion: 2MB pages collapse TLB
// misses at this input scale (a few MB); the paper's point is that they
// stop helping once working sets reach hundreds of GB (scale with -scale).
func (s *Suite) LargePages() ([]LargePagesRow, string) {
	large := largePagesConfig()
	var rows []LargePagesRow
	for _, g := range s.highBandwidth() {
		small := s.Run(g.Name, baseline512Probed())
		big := s.Run(g.Name, large)
		vc := s.Run(g.Name, core.DesignVCOpt())
		rows = append(rows, LargePagesRow{
			Workload:    g.Name,
			MissRatio4K: small.PerCUTLBMissRatio(),
			MissRatio2M: big.PerCUTLBMissRatio(),
			Speedup:     big.SpeedupOver(small),
			VCOverLarge: vc.SpeedupOver(big),
		})
	}
	t := &report.Table{
		Title: "Large pages (paper §3.2): 2MB entries collapse per-CU TLB misses at this\n" +
			"input scale; the VC stays competitive without any OS contiguity requirements.",
		Headers: []string{"Workload", "4KB miss ratio", "2MB miss ratio", "2MB speedup", "VC vs 2MB"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, report.Pct(r.MissRatio4K), report.Pct(r.MissRatio2M),
			report.F2(r.Speedup)+"x", report.F2(r.VCOverLarge)+"x")
	}
	return rows, t.Render()
}

// DSRData summarizes the dynamic-synonym-remapping ablation.
type DSRData struct {
	ReplaysWithout uint64
	ReplaysWith    uint64
	RemapHits      uint64
	SpeedupWithDSR float64
}

// DSR demonstrates §4.3's dynamic synonym remapping on a synthetic
// synonym-heavy workload (the paper's benchmarks have none, matching
// Observation 5).
func (s *Suite) DSR() (DSRData, string) {
	run := func(cfg core.Config) core.Results {
		sys := core.MustNew(cfg)
		sys.Space().EnsureMapped(0x100000)
		sys.Space().MapSynonym(0x900000, 0x100000, memory.PermRead)
		return sys.Run(newSynonymHammer(64))
	}
	without := run(core.DesignVCOpt())
	with := run(core.DesignVCOptDSR())
	d := DSRData{
		ReplaysWithout: without.SynonymReplays,
		ReplaysWith:    with.SynonymReplays,
		RemapHits:      with.RemapHits,
		SpeedupWithDSR: with.SpeedupOver(without),
	}
	t := &report.Table{
		Title: "Dynamic synonym remapping (paper §4.3): active synonym pages are\n" +
			"remapped to their leading page before the L1 lookup.",
		Headers: []string{"Metric", "VC With OPT", "VC With OPT+DSR"},
	}
	t.AddRow("synonym replays", report.I(d.ReplaysWithout), report.I(d.ReplaysWith))
	t.AddRow("remap-table hits", "-", report.I(d.RemapHits))
	t.AddRow("speedup", "1.00x", report.F2(d.SpeedupWithDSR)+"x")
	return d, t.Render()
}

// newSynonymHammer builds a trace that loads a read-only synonym alias
// repeatedly, serialized by barriers.
func newSynonymHammer(n int) *trace.Trace {
	b := trace.NewBuilder("synonym-hammer", 1, 4, 2)
	b.Warp().Load(0x100000)
	b.Barrier()
	for i := 0; i < n; i++ {
		b.Warp().Load(0x900000)
		b.Barrier()
	}
	return b.Build()
}

// EnergyRow compares dynamic energy between designs for one workload.
type EnergyRow struct {
	Workload        string
	BaselineTotal   float64 // uJ
	VCTotal         float64
	BaselineTransUJ float64 // translation structures only
	VCTransUJ       float64
}

// Energy quantifies Takeaway 3 (§5.3), which the paper leaves unmeasured:
// dynamic energy per run, split out for the translation structures the
// virtual cache hierarchy eliminates or filters.
func (s *Suite) Energy() ([]EnergyRow, string) {
	p := energy.DefaultParams()
	var rows []EnergyRow
	for _, g := range s.highBandwidth() {
		base := s.Run(g.Name, baseline512Probed())
		vc := s.Run(g.Name, core.DesignVCOpt())
		eb := energy.Estimate(p, base, 512)
		ev := energy.Estimate(p, vc, 512)
		rows = append(rows, EnergyRow{
			Workload:        g.Name,
			BaselineTotal:   eb.Total(),
			VCTotal:         ev.Total(),
			BaselineTransUJ: eb.PerCUTLB + eb.SharedTLB + eb.Walker + eb.FBT,
			VCTransUJ:       ev.PerCUTLB + ev.SharedTLB + ev.Walker + ev.FBT,
		})
	}
	t := &report.Table{
		Title: "Dynamic energy (Takeaway 3, quantified): the VC design performs no\n" +
			"per-access TLB lookups and filters most shared-TLB/walker activity.",
		Headers: []string{"Workload", "Base total (uJ)", "VC total (uJ)", "Base translation", "VC translation", "Translation saved"},
	}
	var saved []float64
	for _, r := range rows {
		frac := 0.0
		if r.BaselineTransUJ > 0 {
			frac = 1 - r.VCTransUJ/r.BaselineTransUJ
		}
		saved = append(saved, frac)
		t.AddRow(r.Workload, fmt.Sprintf("%.1f", r.BaselineTotal), fmt.Sprintf("%.1f", r.VCTotal),
			fmt.Sprintf("%.2f", r.BaselineTransUJ), fmt.Sprintf("%.2f", r.VCTransUJ), report.Pct(frac))
	}
	out := t.Render()
	out += fmt.Sprintf("\nAverage translation-energy reduction: %s\n", report.Pct(mean(saved)))
	return rows, out
}
