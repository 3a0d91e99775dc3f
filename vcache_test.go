package vcache_test

import (
	"bytes"
	"os"
	"testing"

	"vcache"
	apiv1 "vcache/api/v1"
)

// The public API is exercised from an external test package, the way a
// downstream user would import it.

func smallParams() vcache.Params {
	return vcache.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 11}
}

func TestPublicQuickstartFlow(t *testing.T) {
	tr := vcache.BuildWorkload("kmeans", smallParams())
	base := vcache.Run(vcache.DesignBaseline512(), tr)
	ideal := vcache.Run(vcache.DesignIdeal(), tr)
	if base.Cycles <= 0 || ideal.Cycles <= 0 {
		t.Fatal("runs produced no cycles")
	}
	if base.RelativeTime(ideal) < 1 {
		t.Fatalf("baseline (%d) beat ideal (%d)", base.Cycles, ideal.Cycles)
	}
}

func TestPublicCatalog(t *testing.T) {
	if len(vcache.Workloads()) != 15 {
		t.Fatalf("catalog = %d workloads, want 15", len(vcache.Workloads()))
	}
	hb := vcache.HighBandwidthWorkloads()
	if len(hb) == 0 || len(hb) >= 15 {
		t.Fatalf("high-bandwidth subset = %d", len(hb))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BuildWorkload of unknown name did not panic")
		}
	}()
	vcache.BuildWorkload("not-a-workload", smallParams())
}

func TestPublicCustomTrace(t *testing.T) {
	b := vcache.NewTraceBuilder("custom", 2, 2)
	b.Warp().Load(0x1000, 0x1010, 0x2000).Compute(3)
	b.Barrier()
	b.Warp().Store(0x1000)
	res := vcache.Run(vcache.DesignVCOpt(), b.Build())
	if res.GPU.MemInsts != 2 {
		t.Fatalf("mem insts = %d, want 2", res.GPU.MemInsts)
	}
	if res.Faults != (vcache.FaultCounts{}) {
		t.Fatalf("faults = %+v", res.Faults)
	}
}

func TestPublicSystemOperations(t *testing.T) {
	sys := vcache.NewSystem(vcache.DesignVC())
	b := vcache.NewTraceBuilder("warm", 2, 2)
	b.Warp().Load(0x40000)
	sys.Run(b.Build())
	if !sys.L2().Probe(0x40000) {
		t.Fatal("line not cached")
	}
	sys.Shootdown(0x40000)
	if sys.L2().Probe(0x40000) {
		t.Fatal("shootdown did not invalidate")
	}
}

func TestPublicExperimentSuite(t *testing.T) {
	s, err := vcache.NewExperimentSuite(smallParams(), []string{"kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Render("table2")
	if err != nil || out == "" {
		t.Fatalf("render: %v", err)
	}
	if _, err := s.Render("bogus"); err == nil {
		t.Fatal("bogus figure id accepted")
	}
	if len(vcache.ExperimentIDs()) != 11 {
		t.Fatalf("experiment ids = %v", vcache.ExperimentIDs())
	}
}

func TestPublicDesignPresets(t *testing.T) {
	kinds := map[string]vcache.MMUKind{
		vcache.DesignIdeal().Name:       vcache.IdealMMU,
		vcache.DesignBaseline512().Name: vcache.PhysicalBaseline,
		vcache.DesignVCOpt().Name:       vcache.VirtualHierarchy,
		vcache.DesignL1OnlyVC(32).Name:  vcache.L1OnlyVirtual,
	}
	for name, kind := range kinds {
		var found bool
		for _, cfg := range []vcache.Config{
			vcache.DesignIdeal(), vcache.DesignBaseline512(), vcache.DesignBaseline16K(),
			vcache.DesignBaselineLargePerCU(), vcache.DesignVC(), vcache.DesignVCOpt(),
			vcache.DesignL1OnlyVC(32), vcache.DesignL1OnlyVC(128),
		} {
			if cfg.Name == name {
				found = true
				if cfg.Kind != kind {
					t.Fatalf("%s has kind %v, want %v", name, cfg.Kind, kind)
				}
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%s invalid: %v", name, err)
				}
			}
		}
		if !found {
			t.Fatalf("design %s not found", name)
		}
	}
}

func TestPublicMultiProcessFlow(t *testing.T) {
	cfg := vcache.DesignVCOpt()
	cfg.GPU.NumCUs = 2
	cfg.ASIDTags = true
	sys := vcache.NewSystem(cfg)
	for _, asid := range []vcache.ASID{1, 2} {
		b := vcache.NewTraceBuilderASID("p", asid, 2, 1)
		b.Warp().Load(0x40000)
		sys.Run(b.Build())
	}
	// Both processes' translations coexist.
	p1, _, ok1 := sys.SpaceFor(1).Translate(0x40000)
	p2, _, ok2 := sys.SpaceFor(2).Translate(0x40000)
	if !ok1 || !ok2 || p1 == p2 {
		t.Fatalf("address spaces broken: %v %v %v %v", p1, ok1, p2, ok2)
	}
}

func TestPublicLargePages(t *testing.T) {
	cfg := vcache.DesignBaseline512()
	cfg.GPU.NumCUs = 2
	cfg.LargePages = true
	b := vcache.NewTraceBuilder("lp", 2, 1)
	for i := 0; i < 8; i++ {
		b.Warp().Load(vcache.VAddr(i * 4096))
	}
	r := vcache.Run(cfg, b.Build())
	// One 2MB entry covers all eight pages: at most one miss.
	if r.PerCUTLB.Misses > 2 {
		t.Fatalf("TLB misses with large pages = %d", r.PerCUTLB.Misses)
	}
}

func TestPublicSynonymMapping(t *testing.T) {
	sys := vcache.NewSystem(vcache.DesignVCOpt())
	sys.Space().EnsureMapped(0x100000)
	sys.Space().MapSynonym(0x900000, 0x100000, vcache.PermRead)
	b := vcache.NewTraceBuilder("syn", 4, 2)
	b.Warp().Load(0x100000)
	b.Barrier()
	b.Warp().Load(0x900000)
	r := sys.Run(b.Build())
	if r.SynonymReplays == 0 {
		t.Fatal("synonym not detected through the public API")
	}
}

func TestPublicTraceSaveLoad(t *testing.T) {
	// Enough 32-lane loads that the saved stream spans several chunks.
	b := vcache.NewTraceBuilder("io", 2, 2)
	lanes := make([]vcache.VAddr, 32)
	for i := 0; i < 20000; i++ {
		for l := range lanes {
			lanes[l] = vcache.VAddr(0x100000 + i*128 + l*4)
		}
		b.Warp().Load(lanes...).Compute(2)
	}
	tr := b.Build()
	path := t.TempDir() + "/t.trace"
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() <= 4<<20 {
		t.Fatalf("saved trace should span more than one 4MB chunk: %v %v", st.Size(), err)
	}
	got, err := vcache.LoadTrace(path)
	if err != nil || got.Name != "io" {
		t.Fatalf("LoadTrace: %v %v", got, err)
	}
	cfg := vcache.DesignVCOpt()
	if want, have := apiv1.EncodeResults(vcache.Run(cfg, tr)), apiv1.EncodeResults(vcache.Run(cfg, got)); !bytes.Equal(want, have) {
		t.Fatal("loaded trace simulates differently from the saved one")
	}
}
