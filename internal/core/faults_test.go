package core

import (
	"testing"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

// Fault injection: stores to read-only pages must raise permission faults
// in every design, at the design's own permission-check point (per-CU TLB
// for the baseline, cache line / IOMMU for the virtual designs).

func readOnlyStoreTrace() *trace.Trace {
	b := trace.NewBuilder("ro", 1, 4, 2)
	b.Warp().Load(0x40000) // read is fine
	b.Barrier()
	b.Warp().Store(0x40000) // store must fault
	b.Barrier()
	b.Warp().Store(0x40000) // and again via the warm path (TLB/L1 hit)
	return b.Build()
}

func TestPermissionFaultsEveryDesign(t *testing.T) {
	for _, mk := range []func() Config{DesignIdeal, DesignBaseline512, DesignVCOpt, designL1OnlyVC32} {
		cfg := smallCfg(mk())
		sys := MustNew(cfg)
		sys.Space().SetDefaultPerm(memory.PermRead)
		res := sys.Run(readOnlyStoreTrace())
		if res.Faults.PermFaults == 0 {
			t.Fatalf("%s: store to read-only page did not fault", cfg.Name)
		}
		if res.Faults.PageFaults != 0 {
			t.Fatalf("%s: unexpected page faults %d", cfg.Name, res.Faults.PageFaults)
		}
	}
}

func TestReadOnlyLoadsDoNotFault(t *testing.T) {
	for _, mk := range []func() Config{DesignIdeal, DesignBaseline512, DesignVCOpt, designL1OnlyVC32} {
		cfg := smallCfg(mk())
		cfg.Faults = PanicOnFault
		sys := MustNew(cfg)
		sys.Space().SetDefaultPerm(memory.PermRead)
		b := trace.NewBuilder("r", 1, 4, 2)
		b.Warp().Load(0x40000).Load(0x40000)
		sys.Run(b.Build())
	}
}

func TestPanicOnFaultPolicy(t *testing.T) {
	cfg := smallCfg(DesignBaseline512())
	cfg.Faults = PanicOnFault
	sys := MustNew(cfg)
	sys.Space().SetDefaultPerm(memory.PermRead)
	defer func() {
		if recover() == nil {
			t.Fatal("PanicOnFault did not panic")
		}
	}()
	b := trace.NewBuilder("w", 1, 4, 2)
	b.Warp().Store(0x40000)
	sys.Run(b.Build())
}

func TestResultHelpers(t *testing.T) {
	a := Results{Cycles: 100, Design: "a", Workload: "w"}
	b := Results{Cycles: 200}
	if a.RelativeTime(b) != 0.5 || b.RelativeTime(a) != 2 {
		t.Fatal("RelativeTime wrong")
	}
	if a.SpeedupOver(b) != 2 || b.SpeedupOver(a) != 0.5 {
		t.Fatal("SpeedupOver wrong")
	}
	if a.RelativeTime(Results{}) != 0 || (Results{}).SpeedupOver(a) != 0 {
		t.Fatal("zero-cycle division not guarded")
	}
	if a.String() == "" {
		t.Fatal("empty Results string")
	}
	if (ProbeBreakdown{}).FilteredRatio() != 0 {
		t.Fatal("empty probe ratio not 0")
	}
	for _, k := range []MMUKind{IdealMMU, PhysicalBaseline, VirtualHierarchy, L1OnlyVirtual, MMUKind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestAccessorsExposed(t *testing.T) {
	sys := MustNew(smallCfg(DesignBaseline512()))
	if sys.IOMMU() == nil || sys.L2() == nil || sys.PerCUTLB(0) == nil || sys.L1(0) == nil {
		t.Fatal("accessor returned nil")
	}
	if sys.FBT() != nil {
		t.Fatal("baseline system has an FBT")
	}
	if core := MustNew(smallCfg(DesignVC())); core.FBT() == nil {
		t.Fatal("VC system missing FBT")
	}
	if DesignBaselineLargePerCU().PerCUTLB.Entries != 128 {
		t.Fatal("large per-CU preset wrong")
	}
	if DefaultConfig().IOMMU.Walker.Threads != 16 {
		t.Fatal("walker defaults wrong")
	}
}
