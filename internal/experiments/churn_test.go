package experiments

import (
	"reflect"
	"testing"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// smallChurn keeps the experiment-level tests cheap: a few tenants on a
// small machine, but still enough launches to roll ASID slots over.
func smallChurn(seed uint64) workloads.ChurnParams {
	return workloads.ChurnParams{
		Tenants: 6, Launches: 12, ASIDSlots: 3,
		KernelPages: 16, SharedPages: 4,
		NumCUs: 4, WarpsPerCU: 2, Seed: seed, ArrivalPeriod: 5000,
	}
}

// TestRunChurnShape sanity-checks one grid point: rollovers happen, state
// is retired, and the open-loop backlog numbers are internally consistent.
func TestRunChurnShape(t *testing.T) {
	pt := RunChurn(core.DesignVCOptDSR(), smallChurn(42))
	if pt.Launches != 12 {
		t.Fatalf("Launches = %d, want 12", pt.Launches)
	}
	if pt.Retires == 0 {
		t.Fatal("plan produced no ASID-slot rollovers")
	}
	if pt.RetiredEntries == 0 {
		t.Error("DSR design retired no entries across rollovers")
	}
	if pt.ResidentAtRetire < pt.RetiredEntries {
		t.Errorf("resident %d < retired %d: retirement dropped more than was resident",
			pt.ResidentAtRetire, pt.RetiredEntries)
	}
	if pt.ServiceCycles == 0 || pt.PeakQueueDepth < 1 {
		t.Errorf("degenerate point: %+v", pt)
	}
}

// TestChurnFigureDeterministicAcrossWorkers pins the figure's rendering:
// the suite worker pool must not change a byte of the table or the CSV.
func TestChurnFigureDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]ChurnPoint, string) {
		s := &Suite{Workers: workers, ChurnTenants: []int{2, 3}}
		s.Params = workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 42}
		return s.Churn()
	}
	p1, out1 := run(1)
	p8, out8 := run(8)
	if !reflect.DeepEqual(p1, p8) {
		t.Error("churn points depend on the suite worker count")
	}
	if out1 != out8 {
		t.Errorf("rendered table differs across worker counts\n-- workers=1 --\n%s\n-- workers=8 --\n%s", out1, out8)
	}
	if WriteChurnCSV(p1) != WriteChurnCSV(p8) {
		t.Error("churn CSV differs across worker counts")
	}
}
