package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
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

// runChurnDigests are the sha256 of json.Marshal of RunChurn's point for
// each design at IOMMU bandwidth 1 and 4, on the default 48-launch plan at
// seed 42. They were recorded while every launch still collected its
// Results with RunContext, built its kernel into a fresh Builder and
// bound fresh warp contexts, so they pin that the replay's cheaper path
// moves no number.
var runChurnDigests = []struct {
	name   string
	cfg    func() core.Config
	digest [2]string // IOMMU bandwidth 1, 4
}{
	{"baseline-512", core.DesignBaseline512, [2]string{
		"2ac66f1515532355a9ae0b4c86fc95288b626d1e47e1bcb163af933673a61d94",
		"4af14b5f6d0928cd64e7d2db625ac5207ebf91c8624c68aabe0a84b0b355b664"}},
	{"vc-opt", core.DesignVCOpt, [2]string{
		"22f87c419c618e4da7d08c77460a4cadd11a406f765eead102e86279ce342b73",
		"de33b842b8cefa875407ac5ad733fed3dce01f774098cafabc1ecb359a7740ea"}},
	{"vc-opt-dsr", core.DesignVCOptDSR, [2]string{
		"56a43f9dbd15a048080711e67bd23af9d0b4ac85dfd570e866a2ceb371085a05",
		"a2a63381cfffe07807e62b595dab4f40f2038e504e8893446bf0f86f869b6b94"}},
}

// TestRunChurnDigest pins RunChurn's grid points on the three churn
// designs at both IOMMU bandwidths.
func TestRunChurnDigest(t *testing.T) {
	for _, d := range runChurnDigests {
		for i, bw := range []int{1, 4} {
			pt := RunChurn(d.cfg().WithIOMMUBandwidth(bw), workloads.DefaultChurnParams())
			buf, err := json.Marshal(pt)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != d.digest[i] {
				t.Errorf("%s at IOMMU bandwidth %d: digest %s, want %s\n%s", d.name, bw, got, d.digest[i], buf)
			}
		}
	}
}

// TestRunChurnBytesFlat pins a churn launch at O(launch) host memory: the
// bytes RunChurn allocates per coalesced line on baseline-512 at 960
// launches are no more than at 120, so nothing a launch allocates grows
// with the launches before it (the System, plan and first-launch warm-up
// are spread over more lines at 960). A launch that collected Results,
// whose IOMMU rate series covers every window since cycle 0, would make
// them rise.
func TestRunChurnBytesFlat(t *testing.T) {
	per := func(launches int) float64 {
		p := workloads.DefaultChurnParams()
		p.Launches = launches
		pl := workloads.BuildChurnPlan(p)
		var lines uint64
		for _, l := range pl.Launches {
			lines += pl.KernelTrace(l).Summarize().CoalescedLines
		}
		least := uint64(math.MaxUint64) // of two replays, so a stray allocation elsewhere cannot inflate it
		for i := 0; i < 2; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			RunChurn(core.DesignBaseline512(), p)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return float64(least) / float64(lines)
	}
	few, many := per(120), per(960)
	t.Logf("RunChurn on baseline-512: %.1f B/line at 120 launches, %.1f B/line at 960", few, many)
	if many > few {
		t.Errorf("bytes per line rose from %.1f at 120 launches to %.1f at 960", few, many)
	}
}
