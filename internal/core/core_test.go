package core

import (
	"runtime/debug"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/tlb"
	"vcache/internal/trace"
)

// streamTrace builds a simple streaming workload: each of n chunks loads 32
// consecutive words (one line per lane, unit stride across the chunk).
func streamTrace(name string, chunks int) *trace.Trace {
	b := trace.NewBuilder(name, 1, 4, 2)
	for c := 0; c < chunks; c++ {
		base := memory.VAddr(c * 32 * memory.LineSize)
		addrs := make([]memory.VAddr, 32)
		for l := range addrs {
			addrs[l] = base + memory.VAddr(l*memory.LineSize)
		}
		b.Warp().Load(addrs...).Compute(4)
	}
	return b.Build()
}

// divergentTrace scatters lane accesses over many pages with heavy line
// reuse (8 hot lines per page): per-CU TLBs thrash while the 2MB L2 holds
// the working set — the access shape the paper observes for graph
// workloads, where virtual caches filter translations.
func divergentTrace(name string, insts, pages int) *trace.Trace {
	return divergentTraceMix(name, insts, pages, false)
}

// divergentTraceMix is divergentTrace with, when stores is set, every
// other instruction a store.
func divergentTraceMix(name string, insts, pages int, stores bool) *trace.Trace {
	b := trace.NewBuilder(name, 1, 4, 2)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < insts; i++ {
		addrs := make([]memory.VAddr, 16)
		for l := range addrs {
			r := next()
			page := r % uint64(pages)
			lineIdx := (r >> 32) % 8 // 8 hot lines per page
			addrs[l] = memory.VAddr(page*memory.PageSize + lineIdx*memory.LineSize)
		}
		if stores && i%2 == 1 {
			b.Warp().Store(addrs...)
		} else {
			b.Warp().Load(addrs...)
		}
	}
	return b.Build()
}

func smallCfg(c Config) Config {
	c.GPU.NumCUs = 4
	return c
}

// newWarmTrace builds a one-load trace touching va (test helper).
func newWarmTrace(va memory.VAddr) *trace.Trace {
	b := trace.NewBuilder("warm", 1, 4, 2)
	b.Warp().Load(va)
	return b.Build()
}

func TestRunAllDesignsComplete(t *testing.T) {
	designs := []Config{
		DesignIdeal(),
		DesignBaseline512(),
		DesignBaseline16K(),
		DesignVC(),
		DesignVCOpt(),
		DesignL1OnlyVC(32),
	}
	tr := streamTrace("stream", 64)
	for _, cfg := range designs {
		cfg := smallCfg(cfg)
		cfg.Faults = PanicOnFault
		res := MustRun(cfg, tr)
		if res.Cycles == 0 {
			t.Fatalf("%s: zero cycles", cfg.Name)
		}
		if res.GPU.MemInsts == 0 {
			t.Fatalf("%s: no memory instructions executed", cfg.Name)
		}
		if res.Faults != (FaultCounts{}) {
			t.Fatalf("%s: faults %+v", cfg.Name, res.Faults)
		}
	}
}

func TestIdealFasterThanBaseline(t *testing.T) {
	tr := divergentTrace("div", 400, 300)
	ideal := MustRun(smallCfg(DesignIdeal()), tr)
	base := MustRun(smallCfg(DesignBaseline512()), tr)
	if base.Cycles <= ideal.Cycles {
		t.Fatalf("baseline (%d) not slower than ideal (%d)", base.Cycles, ideal.Cycles)
	}
}

func TestVirtualCacheFiltersIOMMUAccesses(t *testing.T) {
	// Re-touching the same pages repeatedly: per-CU TLBs thrash (many
	// pages) but the caches hold the data, so the VC filters translations.
	tr := divergentTrace("div", 400, 300)
	base := MustRun(smallCfg(DesignBaseline512()), tr)
	vc := MustRun(smallCfg(DesignVCOpt()), tr)
	if vc.IOMMU.Requests >= base.IOMMU.Requests {
		t.Fatalf("VC IOMMU requests (%d) not below baseline (%d)",
			vc.IOMMU.Requests, base.IOMMU.Requests)
	}
	if vc.Cycles >= base.Cycles {
		t.Fatalf("VC (%d cycles) not faster than baseline (%d)", vc.Cycles, base.Cycles)
	}
}

func TestResidencyProbeBreakdown(t *testing.T) {
	cfg := smallCfg(DesignBaseline512())
	cfg.ProbeResidency = true
	tr := divergentTrace("div", 300, 200)
	res := MustRun(cfg, tr)
	p := res.Probe
	if p.TLBMisses == 0 {
		t.Fatal("no TLB misses recorded")
	}
	if p.L1Hit+p.L2Hit+p.MemAccess != p.TLBMisses {
		t.Fatalf("breakdown doesn't sum: %+v", p)
	}
	if p.L1Hit+p.L2Hit == 0 {
		t.Fatal("no TLB misses found data in caches; workload should re-touch pages")
	}
}

// TestResidencyProbeReadsL2AtMissCycle: the Figure 2 probe sees the L2 as
// it stands at the cycle of the per-CU TLB miss. CU 0's cold load of
// 0x4000 fills its line into the L2 at cycle 936 (TestGoldenBaselineColdLoad's
// 946 less the L2->CU hop: 1 + 50 + 4 + 640 + 50 + 1 + 10 + 20 + 160).
// CU 1 computes for k cycles, then misses its own TLB on the same line at
// k+1: before the fill the probe must count a memory access, from the
// fill's cycle on (the fill event fires first) an L2 hit.
func TestResidencyProbeReadsL2AtMissCycle(t *testing.T) {
	const fill = 936
	for k := uint64(fill - 9); k < fill; k++ {
		cfg := DesignBaseline512()
		cfg.GPU.NumCUs = 2
		cfg.ProbeResidency = true
		b := trace.NewBuilder("probe", 1, 2, 1)
		b.Warp().Load(0x4000)            // CU 0
		b.Warp().Compute(k).Load(0x4000) // CU 1
		got := MustRun(cfg, b.Build()).Probe
		want := ProbeBreakdown{TLBMisses: 2, MemAccess: 2}
		if k+1 >= fill {
			want = ProbeBreakdown{TLBMisses: 2, L2Hit: 1, MemAccess: 1}
		}
		if got != want {
			t.Errorf("CU 1 misses at cycle %d: probe %+v, want %+v", k+1, got, want)
		}
	}
}

func TestPerCUTLBSweepReducesMisses(t *testing.T) {
	tr := divergentTrace("div", 300, 100)
	var prev float64 = 1.1
	for _, entries := range []int{32, 128, 0} {
		cfg := smallCfg(DesignBaseline512()).WithPerCUTLB(entries)
		res := MustRun(cfg, tr)
		mr := res.PerCUTLBMissRatio()
		if mr > prev+1e-9 {
			t.Fatalf("TLB %d: miss ratio %.3f worse than smaller TLB %.3f", entries, mr, prev)
		}
		prev = mr
	}
}

func TestIOMMUBandwidthSweep(t *testing.T) {
	// Serialization at the IOMMU port only dominates with high memory-level
	// parallelism: use the full 16-CU GPU with 8 warp contexts per CU.
	b := trace.NewBuilder("div16", 1, 16, 8)
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 2000; i++ {
		addrs := make([]memory.VAddr, 16)
		for l := range addrs {
			r := next()
			addrs[l] = memory.VAddr((r%600)*memory.PageSize + ((r>>32)%8)*memory.LineSize)
		}
		b.Warp().Load(addrs...)
	}
	tr := b.Build()
	var cycles []uint64
	for _, bw := range []int{1, 2, 4} {
		cfg := DesignBaseline16K().WithIOMMUBandwidth(bw)
		cycles = append(cycles, MustRun(cfg, tr).Cycles)
	}
	// Higher bandwidth must help substantially end to end; allow small
	// non-monotonic wiggle between adjacent points (second-order queueing
	// interactions), but 4/cycle must beat 1/cycle clearly.
	if float64(cycles[2]) > 0.95*float64(cycles[0]) {
		t.Fatalf("bw sweep cycles %v: 4/cycle not clearly faster than 1/cycle", cycles)
	}
	for i := 1; i < len(cycles); i++ {
		if float64(cycles[i]) > 1.05*float64(cycles[i-1]) {
			t.Fatalf("bw sweep cycles %v: worse with more bandwidth at step %d", cycles, i)
		}
	}
}

func TestVCReadOnlySynonymReplay(t *testing.T) {
	cfg := smallCfg(DesignVCOpt())
	sys := MustNew(cfg)
	// Alias page: 0x900000 maps to the same frame as 0x100000 (read-only).
	sys.Space().EnsureMapped(0x100000)
	sys.Space().MapSynonym(0x900000, 0x100000, memory.PermRead)

	b := trace.NewBuilder("syn", 1, 4, 2)
	b.Warp().Load(0x100000) // establish leading VA
	b.Barrier()
	b.Warp().Load(0x900000) // synonym access -> replay
	b.Barrier()
	b.Warp().Load(0x900000) // replays again (never cached non-leading)
	res := sys.Run(b.Build())
	if res.SynonymReplays < 2 {
		t.Fatalf("synonym replays = %d, want >= 2", res.SynonymReplays)
	}
	if res.Faults.RWSynonym != 0 {
		t.Fatalf("read-only synonym faulted: %+v", res.Faults)
	}
	// No duplication: data cached only under the leading address.
	if sys.L2().Probe(0x900000) {
		t.Fatal("synonym address cached in L2 (duplication)")
	}
	if !sys.L2().Probe(0x100000) {
		t.Fatal("leading address not cached")
	}
}

func TestVCReadWriteSynonymFaults(t *testing.T) {
	cfg := smallCfg(DesignVCOpt())
	sys := MustNew(cfg)
	sys.Space().EnsureMapped(0x100000)
	sys.Space().MapSynonym(0x900000, 0x100000, memory.PermRead|memory.PermWrite)

	b := trace.NewBuilder("rwsyn", 1, 4, 2)
	b.Warp().Store(0x100000) // write under leading VA
	b.Barrier()
	b.Warp().Load(0x900000) // synonym read of written page -> fault
	res := sys.Run(b.Build())
	if res.Faults.RWSynonym == 0 {
		t.Fatal("read-write synonym not detected")
	}
}

func TestVCShootdownInvalidatesData(t *testing.T) {
	cfg := smallCfg(DesignVC())
	sys := MustNew(cfg)
	b := trace.NewBuilder("warm", 1, 4, 2)
	addrs := make([]memory.VAddr, 8)
	for i := range addrs {
		addrs[i] = memory.VAddr(0x40000 + i*memory.LineSize)
	}
	b.Warp().Load(addrs...)
	sys.Run(b.Build())
	if !sys.L2().Probe(0x40000) {
		t.Fatal("line not cached after warmup")
	}
	sys.Shootdown(0x40000)
	if sys.L2().Probe(0x40000) {
		t.Fatal("L2 line survived shootdown")
	}
	for cu := 0; cu < cfg.GPU.NumCUs; cu++ {
		if sys.L1(cu).Probe(0x40000) {
			t.Fatal("L1 line survived shootdown")
		}
	}
	if got, _ := sys.FBT().Entry(memoryPPNOf(t, sys, 0x40000)); got.BitVec != 0 {
		t.Fatal("FBT entry survived shootdown")
	}
	// A second shootdown is filtered by the FT.
	sys.Shootdown(0x40000)
	if sys.FBT().Stats().ShootdownsFiltered == 0 {
		t.Fatal("repeat shootdown not filtered")
	}
}

func memoryPPNOf(t *testing.T, sys *System, va memory.VAddr) memory.PPN {
	t.Helper()
	pa, _, ok := sys.Space().Translate(va)
	if !ok {
		t.Fatal("address not mapped")
	}
	return pa.Page()
}

func TestVCCoherenceProbeFiltering(t *testing.T) {
	cfg := smallCfg(DesignVC())
	sys := MustNew(cfg)
	b := trace.NewBuilder("warm", 1, 4, 2)
	b.Warp().Load(0x40000)
	sys.Run(b.Build())
	pa, _, _ := sys.Space().Translate(0x40000)
	// Probe for the cached line: forwarded and invalidates.
	if !sys.CPUProbe(pa) {
		t.Fatal("probe for cached line filtered")
	}
	if sys.L2().Probe(0x40000) {
		t.Fatal("probe did not invalidate the line")
	}
	// Probe for an uncached physical page: filtered by the BT.
	if sys.CPUProbe(memory.PPN(12345).Base()) {
		t.Fatal("probe for uncached page forwarded")
	}
	if sys.FBT().Stats().CoherenceFiltered == 0 {
		t.Fatal("filter count not incremented")
	}
}

// warmProbeSystem runs one warp's loads of 16 consecutive lines from
// 0x40000 on a small system of the given design, so CPU coherence probes
// have cached lines to find. It returns the lines' physical addresses.
func warmProbeSystem(t *testing.T, cfg Config) (*System, []memory.PAddr) {
	t.Helper()
	sys := MustNew(smallCfg(cfg))
	addrs := make([]memory.VAddr, 16)
	for i := range addrs {
		addrs[i] = 0x40000 + memory.VAddr(i*memory.LineSize)
	}
	b := trace.NewBuilder("warm", 1, 4, 2)
	b.Warp().Load(addrs...)
	sys.Run(b.Build())
	pas := make([]memory.PAddr, len(addrs))
	for i, va := range addrs {
		pa, _, ok := sys.Space().Translate(va)
		if !ok {
			t.Fatalf("line %#x not mapped after the warm run", va)
		}
		pas[i] = pa
	}
	return sys, pas
}

// TestCPUProbeForwardsCachedFiltersUncached: in the virtual hierarchy a
// probe of each cached line is forwarded, reverse-translated to the
// leading virtual address and invalidates the line; a second probe of the
// just-invalidated line is filtered by the BT bit vector, and a probe of a
// page the BT does not track is filtered too. The BT's counters agree.
func TestCPUProbeForwardsCachedFiltersUncached(t *testing.T) {
	sys, pas := warmProbeSystem(t, DesignVC())
	for i, pa := range pas {
		va := memory.VAddr(0x40000 + i*memory.LineSize)
		if !sys.CPUProbe(pa) {
			t.Fatalf("probe for cached line %#x filtered", va)
		}
		if sys.L2().Probe(sys.vkey(va)) {
			t.Fatalf("probe did not invalidate line %#x", va)
		}
		if sys.CPUProbe(pa) {
			t.Fatalf("second probe of line %#x forwarded", va)
		}
	}
	if sys.CPUProbe(memory.PPN(12345).Base()) {
		t.Fatal("probe for uncached page forwarded")
	}
	want := len(pas)
	if st := sys.FBT().Stats(); st.CoherenceForwarded != uint64(want) || st.CoherenceFiltered != uint64(want+1) {
		t.Fatalf("BT forwarded %d and filtered %d probes, want %d and %d",
			st.CoherenceForwarded, st.CoherenceFiltered, want, want+1)
	}
}

// TestCPUProbeAgainstPhysicalBaseline: the physical baseline has no BT, so
// a probe goes straight to its L2 — it invalidates a cached line once, and
// finds nothing the second time or on an uncached page.
func TestCPUProbeAgainstPhysicalBaseline(t *testing.T) {
	sys, pas := warmProbeSystem(t, DesignBaseline512())
	if sys.FBT() != nil {
		t.Fatal("physical baseline has a BT")
	}
	for _, pa := range pas {
		if !sys.CPUProbe(pa) {
			t.Fatalf("probe for cached line %#x missed in the physical L2", uint64(pa))
		}
		if sys.L2().Probe(uint64(pa.Line())) {
			t.Fatalf("probe did not invalidate line %#x", uint64(pa))
		}
		if sys.CPUProbe(pa) {
			t.Fatalf("second probe found already-invalidated line %#x", uint64(pa))
		}
	}
	if sys.CPUProbe(memory.PPN(12345).Base()) {
		t.Fatal("probe for uncached page hit the L2")
	}
}

// TestCPUProbeStream: a stream of 50 probes sweeps the 16 warmed lines in
// a fixed pseudo-random order. Each line is forwarded on its first probe
// and filtered on every later one, and the BT's forwarded and filtered
// counters equal the stream's.
func TestCPUProbeStream(t *testing.T) {
	sys, pas := warmProbeSystem(t, DesignVC())
	seen := make(map[int]bool)
	var forwarded, filtered uint64
	for i, x := 0, uint64(42); i < 50; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := int(x % uint64(len(pas)))
		fwd := sys.CPUProbe(pas[line])
		if fwd == seen[line] {
			t.Fatalf("probe %d of line %d: forwarded %v, already probed %v", i, line, fwd, seen[line])
		}
		seen[line] = true
		if fwd {
			forwarded++
		} else {
			filtered++
		}
	}
	if forwarded == 0 || filtered == 0 {
		t.Fatalf("stream forwarded %d and filtered %d probes, want both nonzero", forwarded, filtered)
	}
	if st := sys.FBT().Stats(); st.CoherenceForwarded != forwarded || st.CoherenceFiltered != filtered {
		t.Fatalf("BT forwarded %d and filtered %d probes, stream saw %d and %d",
			st.CoherenceForwarded, st.CoherenceFiltered, forwarded, filtered)
	}
}

func TestFBTAsSecondLevelTLBReducesWalks(t *testing.T) {
	tr := divergentTrace("div", 400, 600)
	noOpt := MustRun(smallCfg(DesignVC()), tr)
	opt := MustRun(smallCfg(DesignVCOpt()), tr)
	if opt.FBT.SecondaryTLBHits == 0 {
		t.Fatal("FBT never used as second-level TLB")
	}
	if opt.IOMMU.Walks >= noOpt.IOMMU.Walks {
		t.Fatalf("walks with OPT (%d) not below without (%d)", opt.IOMMU.Walks, noOpt.IOMMU.Walks)
	}
}

func TestL1OnlyVCBetweenBaselineAndFullVC(t *testing.T) {
	tr := divergentTrace("div", 500, 300)
	base := MustRun(smallCfg(DesignBaseline16K()), tr)
	l1only := MustRun(smallCfg(DesignL1OnlyVC(32)), tr)
	full := MustRun(smallCfg(DesignVCOpt()), tr)
	if l1only.IOMMU.Requests > base.IOMMU.Requests {
		t.Fatalf("L1-only VC increased IOMMU traffic: %d vs %d", l1only.IOMMU.Requests, base.IOMMU.Requests)
	}
	if full.IOMMU.Requests > l1only.IOMMU.Requests {
		t.Fatalf("full VC (%d reqs) not filtering more than L1-only (%d)",
			full.IOMMU.Requests, l1only.IOMMU.Requests)
	}
}

func TestLifetimeTracking(t *testing.T) {
	cfg := smallCfg(DesignBaseline512())
	cfg.TrackLifetimes = true
	cfg.PerCUTLB = tlb.Config{Entries: 8} // force evictions
	tr := divergentTrace("div", 300, 200)
	res := MustRun(cfg, tr)
	if res.Lifetimes == nil {
		t.Fatal("lifetimes not collected")
	}
	if res.Lifetimes.TLBEntries.N() == 0 {
		t.Fatal("no TLB entry lifetimes recorded")
	}
	if res.Lifetimes.L2Data.N() == 0 && res.Lifetimes.L1Data.N() == 0 {
		t.Fatal("no cache line lifetimes recorded")
	}
}

func TestWriteThroughInvariant(t *testing.T) {
	// After any run, no L1 line may be dirty (write-through no allocate)
	// and VC L2 contents must be consistent with FBT bit vectors.
	cfg := smallCfg(DesignVC())
	sys := MustNew(cfg)
	b := trace.NewBuilder("rw", 1, 4, 2)
	for i := 0; i < 64; i++ {
		a := memory.VAddr(i * 4 * memory.LineSize)
		b.Warp().Load(a).Store(a)
	}
	sys.Run(b.Build())
	// Spot-check: every resident L2 line's page has an FBT entry with the
	// corresponding bit set.
	for i := 0; i < 64; i++ {
		a := memory.VAddr(i * 4 * memory.LineSize)
		if !sys.L2().Probe(uint64(a)) {
			continue
		}
		pa, _, _ := sys.Space().Translate(a)
		v, ok := sys.FBT().Entry(pa.Page())
		if !ok {
			t.Fatalf("L2 line %#x has no FBT entry", uint64(a))
		}
		if v.BitVec&(1<<uint(a.LineIndex())) == 0 {
			t.Fatalf("FBT bit clear for resident L2 line %#x", uint64(a))
		}
		if !v.Written {
			t.Fatalf("page %#x written but FBT entry not marked", uint64(a))
		}
	}
}

func TestChangePermissionShootsDown(t *testing.T) {
	cfg := smallCfg(DesignVC())
	sys := MustNew(cfg)
	b := trace.NewBuilder("w", 1, 4, 2)
	b.Warp().Load(0x40000)
	sys.Run(b.Build())
	if !sys.ChangePermission(0x40000, memory.PermRead) {
		t.Fatal("ChangePermission failed")
	}
	if sys.L2().Probe(0x40000) {
		t.Fatal("data survived permission change")
	}
	_, perm, _ := sys.Space().Translate(0x40000)
	if perm != memory.PermRead {
		t.Fatal("permission not changed")
	}
}

func TestUnmapPage(t *testing.T) {
	cfg := smallCfg(DesignBaseline512())
	sys := MustNew(cfg)
	b := trace.NewBuilder("w", 1, 4, 2)
	b.Warp().Load(0x40000)
	tr := b.Build()
	sys.Run(tr)
	if !sys.UnmapPage(0x40000) {
		t.Fatal("UnmapPage failed")
	}
	if _, _, ok := sys.Space().Translate(0x40000); ok {
		t.Fatal("page still mapped")
	}
	if sys.UnmapPage(0x40000) {
		t.Fatal("double unmap succeeded")
	}
	// A page that a 2MB mapping serves stays mapped and takes no
	// shootdown: the model splits no large page.
	lp := smallCfg(DesignVCOpt())
	lp.LargePages = true
	sys = MustNew(lp)
	sys.Run(tr)
	before := sys.FBT().Stats()
	if sys.UnmapPage(0x40000) {
		t.Fatal("UnmapPage of a page a 2MB mapping serves succeeded")
	}
	if _, _, ok := sys.Space().Translate(0x40000); !ok {
		t.Fatal("the 2MB mapping lost a page")
	}
	if after := sys.FBT().Stats(); after != before {
		t.Fatalf("the refused unmap shot the page down: FBT stats %+v, before %+v", after, before)
	}
}

func TestFlushGPU(t *testing.T) {
	cfg := smallCfg(DesignVCOpt())
	sys := MustNew(cfg)
	b := trace.NewBuilder("w", 1, 4, 2)
	for i := 0; i < 16; i++ {
		b.Warp().Load(memory.VAddr(i * memory.PageSize))
	}
	sys.Run(b.Build())
	sys.FlushGPU()
	if sys.FBT().Len() != 0 {
		t.Fatal("FBT entries survived flush")
	}
	if sys.L2().Resident() != 0 {
		t.Fatal("L2 lines survived flush (FBT eviction should invalidate)")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := DefaultConfig()
	c.GPU.NumCUs = 0
	if c.Validate() == nil {
		t.Fatal("zero CUs accepted")
	}
	c = DefaultConfig()
	c.L1.LineBytes = 64
	if c.Validate() == nil {
		t.Fatal("mismatched line sizes accepted")
	}
	c = DesignVC()
	c.FBT.Entries = 0
	if c.Validate() == nil {
		t.Fatal("VC without FBT accepted")
	}
}

func asidTrace(asid memory.ASID, va memory.VAddr) *trace.Trace {
	b := trace.NewBuilder("proc", asid, 4, 2)
	b.Warp().Load(va)
	return b.Build()
}

func TestContextSwitchFlushesWithoutASIDTags(t *testing.T) {
	cfg := smallCfg(DesignVC())
	sys := MustNew(cfg)
	sys.Run(asidTrace(1, 0x40000))
	if !sys.L2().Probe(0x40000) {
		t.Fatal("process 1 data not cached")
	}
	// Switching to process 2 without ASID tags must flush the virtual
	// caches — otherwise process 2's 0x40000 (a homonym) would falsely
	// hit process 1's data.
	sys.Run(asidTrace(2, 0x40000))
	p1, _, _ := sys.SpaceFor(1).Translate(0x40000)
	p2, _, _ := sys.SpaceFor(2).Translate(0x40000)
	if p1 == p2 {
		t.Fatal("processes share a frame; homonym test is vacuous")
	}
	// After the second run, the cached line belongs to process 2.
	v, ok := sys.FBT().Entry(p2.Page())
	if !ok || v.ASID != 2 {
		t.Fatalf("FBT entry = %+v ok=%v, want process 2's page", v, ok)
	}
	if _, ok := sys.FBT().Entry(p1.Page()); ok {
		t.Fatal("process 1's FBT entry survived the flush")
	}
}

func TestASIDTagsPreventHomonymsWithoutFlush(t *testing.T) {
	cfg := smallCfg(DesignVC())
	cfg.ASIDTags = true
	sys := MustNew(cfg)
	sys.Run(asidTrace(1, 0x40000))
	res2 := sys.Run(asidTrace(2, 0x40000))
	// Process 2's identical virtual address must MISS (homonym
	// protection): its load goes to memory, not process 1's line.
	if res2.L1.Hits()+res2.L2.Hits() != 0 {
		// Stats are cumulative; the first run had no hits either (single
		// cold load), so any hit here is a homonym violation.
		t.Fatalf("homonym hit across address spaces: %+v", res2.L2)
	}
	// Both processes' data coexist in the L2 under distinct tags.
	p1, _, _ := sys.SpaceFor(1).Translate(0x40000)
	p2, _, _ := sys.SpaceFor(2).Translate(0x40000)
	if _, ok := sys.FBT().Entry(p1.Page()); !ok {
		t.Fatal("process 1's FBT entry evicted despite ASID tags")
	}
	if _, ok := sys.FBT().Entry(p2.Page()); !ok {
		t.Fatal("process 2's FBT entry missing")
	}
}

func TestContextSwitchPhysicalCachesKeepData(t *testing.T) {
	// Physical caches don't care about address spaces: no flush needed.
	cfg := smallCfg(DesignBaseline512())
	sys := MustNew(cfg)
	sys.Run(asidTrace(1, 0x40000))
	before := sys.L2().Resident()
	if before == 0 {
		t.Fatal("nothing cached")
	}
	sys.Run(asidTrace(2, 0x40000))
	if sys.L2().Resident() < before {
		t.Fatal("physical L2 lost lines on context switch")
	}
}

func TestTwoLevelPerCUTLB(t *testing.T) {
	tr := divergentTrace("div", 400, 120)
	one := MustRun(smallCfg(DesignBaseline16K()), tr)
	two := MustRun(smallCfg(DesignBaselineTwoLevelTLB()), tr)
	// The private L2 TLB (256 entries x 4 CUs) covers the 120-page working
	// set, so far fewer requests reach the IOMMU.
	if two.IOMMU.Requests >= one.IOMMU.Requests/2 {
		t.Fatalf("2-level TLB requests %d not well below 1-level %d",
			two.IOMMU.Requests, one.IOMMU.Requests)
	}
	if two.Cycles >= one.Cycles {
		t.Fatalf("2-level TLB (%d) not faster than 1-level (%d)", two.Cycles, one.Cycles)
	}
}

func TestTwoLevelTLBShootdown(t *testing.T) {
	cfg := smallCfg(DesignBaselineTwoLevelTLB())
	sys := MustNew(cfg)
	sys.Run(newWarmTrace(0x40000))
	sys.Shootdown(0x40000)
	for cu := range sys.cuTLB2s {
		if sys.cuTLB2s[cu].Probe(sys.asid, memory.VAddr(0x40000).Page()) {
			t.Fatal("second-level TLB entry survived shootdown")
		}
	}
}

// TestInvariantsAcrossDesigns runs the RTL-assertion-style checker after
// runs under every design and several feature combinations.
func TestInvariantsAcrossDesigns(t *testing.T) {
	tr := divergentTrace("div", 300, 150)
	cfgs := []Config{
		smallCfg(DesignIdeal()),
		smallCfg(DesignBaseline512()),
		smallCfg(DesignVC()),
		smallCfg(DesignVCOpt()),
		smallCfg(DesignL1OnlyVC(32)),
	}
	// Feature combos on the virtual hierarchy.
	small := smallCfg(DesignVCOpt())
	small.FBT.Entries = 256 // forces FBT evictions + invalidations
	cfgs = append(cfgs, small)
	noFilter := smallCfg(DesignVC())
	noFilter.InvFilter = false
	cfgs = append(cfgs, noFilter)
	asid := smallCfg(DesignVCOptDSR())
	cfgs = append(cfgs, asid)
	lp := smallCfg(DesignVCOpt())
	lp.LargePages = true
	cfgs = append(cfgs, lp)

	for _, cfg := range cfgs {
		sys := MustNew(cfg)
		sys.Run(tr)
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("%s (fbt=%d filter=%v lp=%v): %v", cfg.Name, cfg.FBT.Entries, cfg.InvFilter, cfg.LargePages, err)
		}
	}
}

// TestInvariantsAfterDisruptions stresses the bookkeeping with shootdowns
// and coherence probes interleaved between runs.
func TestInvariantsAfterDisruptions(t *testing.T) {
	cfg := smallCfg(DesignVCOpt())
	cfg.FBT.Entries = 512
	sys := MustNew(cfg)
	tr := divergentTrace("div", 200, 120)
	sys.Run(tr)
	for page := 0; page < 120; page += 7 {
		sys.Shootdown(memory.VAddr(page * memory.PageSize))
	}
	for page := 1; page < 120; page += 11 {
		if pa, _, ok := sys.Space().Translate(memory.VAddr(page * memory.PageSize)); ok {
			sys.CPUProbe(pa)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Run again on the disrupted system and re-check.
	sys.Run(divergentTrace("div2", 150, 120))
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeterminism guards against map-iteration or scheduling
// nondeterminism creeping into the simulator: identical configurations and
// traces must produce identical measurements.
func TestRunDeterminism(t *testing.T) {
	tr := divergentTrace("div", 250, 150)
	for _, mk := range []func() Config{DesignBaseline512, DesignVCOpt, designL1OnlyVC32} {
		a := MustRun(smallCfg(mk()), tr)
		b := MustRun(smallCfg(mk()), tr)
		if a.Cycles != b.Cycles {
			t.Fatalf("%s: cycles differ: %d vs %d", a.Design, a.Cycles, b.Cycles)
		}
		if a.IOMMU.Requests != b.IOMMU.Requests || a.IOMMU.Walks != b.IOMMU.Walks {
			t.Fatalf("%s: IOMMU stats differ", a.Design)
		}
		if a.L2 != b.L2 {
			t.Fatalf("%s: L2 stats differ: %+v vs %+v", a.Design, a.L2, b.L2)
		}
	}
}

// designL1OnlyVC32 adapts the parameterized preset to a nullary maker for
// table-driven tests.
func designL1OnlyVC32() Config { return DesignL1OnlyVC(32) }

// TestNewAllocsIndependentOfSets pins that a System's set-associative
// structures allocate once per lane, not once per set: a baseline-16K
// System (2,048 IOMMU-TLB sets) allocates no more than a baseline-512 one
// (64 sets), and vc-opt, which adds the 2,048-set FBT, at most a handful
// more. GC runs during the measurement are held off, since the count is
// process-wide.
func TestNewAllocsIndependentOfSets(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	b512, b16k, vcopt := allocs(DesignBaseline512()), allocs(DesignBaseline16K()), allocs(DesignVCOpt())
	t.Logf("core.New allocations: baseline-512 %v, baseline-16K %v, vc-opt %v", b512, b16k, vcopt)
	if b16k > b512 {
		t.Errorf("baseline-16K allocates %v times, baseline-512 %v: allocations grow with the set count", b16k, b512)
	}
	if vcopt > b512+16 {
		t.Errorf("vc-opt allocates %v times, more than baseline-512's %v plus 16", vcopt, b512)
	}
}
