package artifact

import (
	"reflect"
	"strings"
	"testing"

	"vcache/internal/core"
	"vcache/internal/fingerprint"
	"vcache/internal/workloads"
)

// These guards enforce the cache's core safety property: every exported
// field of the structs that cache keys are derived from must actually
// change the key.
//
// Two layers:
//
//   - TestFingerprintCoversEveryConfigField mutates each leaf field in turn
//     (found reflectively, so fields added later are covered automatically)
//     and asserts the fingerprint moves. This can only fail if the hasher
//     itself skips data — but it fails loudly if someone "optimizes" the
//     key derivation to hash a subset.
//
//   - The golden path lists pin the exact key-relevant surface. Adding an
//     exported field to core.Config or workloads.Params fails the golden
//     until it is updated — a deliberate acknowledgement that the new field
//     (a) is semantically part of the cache key and (b) has invalidated
//     every existing cache entry. If a new field must NOT affect results
//     (purely cosmetic), it still invalidates the cache once; that is the
//     safe direction.

func TestFingerprintCoversEveryConfigField(t *testing.T) {
	cfg := core.DesignBaseline512()
	base := core.ConfigFingerprint(cfg)
	n := fingerprint.MutateLeaves(cfg, func(path string, mutated any) {
		if core.ConfigFingerprint(mutated.(core.Config)) == base {
			t.Errorf("%s: mutating the field did not change ConfigFingerprint", path)
		}
	})
	if n < 40 {
		t.Fatalf("walked only %d Config leaves — the reflective walk is broken", n)
	}
}

func TestFingerprintCoversEveryParamsField(t *testing.T) {
	p := workloads.DefaultParams()
	base := TraceKey("bfs", p)
	fingerprint.MutateLeaves(p, func(path string, mutated any) {
		if TraceKey("bfs", mutated.(workloads.Params)) == base {
			t.Errorf("%s: mutating the field did not change TraceKey", path)
		}
	})
}

var configShapeGolden = []string{
	"Config.ASIDTags bool",
	"Config.BatchedTranslation bool",
	"Config.DRAM.Latency uint64",
	"Config.DRAM.LinesPerCycle int",
	"Config.DynamicSynonymRemap bool",
	"Config.FBT.Assoc int",
	"Config.FBT.Entries int",
	"Config.Faults core.FaultPolicy",
	"Config.GPU.BlockOnStore bool",
	"Config.GPU.IssuePerCycle int",
	"Config.GPU.Lanes int",
	"Config.GPU.NumCUs int",
	"Config.GPU.ScratchLatency uint64",
	"Config.IOMMU.Banks int",
	"Config.IOMMU.FBTLatency uint64",
	"Config.IOMMU.LookupLatency uint64",
	"Config.IOMMU.LookupsPerCycle int",
	"Config.IOMMU.SampleWindow uint64",
	"Config.IOMMU.TLB.Assoc int",
	"Config.IOMMU.TLB.Entries int",
	"Config.IOMMU.Walker.CachedLevels int",
	"Config.IOMMU.Walker.PWCHitLatency uint64",
	"Config.IOMMU.Walker.PWCSizeBytes int",
	"Config.IOMMU.Walker.Threads int",
	"Config.InvFilter bool",
	"Config.Kind core.MMUKind",
	"Config.L1.Assoc int",
	"Config.L1.Banks int",
	"Config.L1.LineBytes int",
	"Config.L1.Policy cache.WritePolicy",
	"Config.L1.SizeBytes int",
	"Config.L2.Assoc int",
	"Config.L2.Banks int",
	"Config.L2.LineBytes int",
	"Config.L2.Policy cache.WritePolicy",
	"Config.L2.SizeBytes int",
	"Config.L2BankPorts int",
	"Config.LargePages bool",
	"Config.Lat.CUToIOMMU uint64",
	"Config.Lat.CUToL2 uint64",
	"Config.Lat.L1Hit uint64",
	"Config.Lat.L2Hit uint64",
	"Config.Lat.L2ToIOMMU uint64",
	"Config.Lat.PerCUTLB uint64",
	"Config.Name string",
	"Config.PerCUTLB.Assoc int",
	"Config.PerCUTLB.Entries int",
	"Config.PerCUTLB2.Assoc int",
	"Config.PerCUTLB2.Entries int",
	"Config.PerCUTLB2Latency uint64",
	"Config.ProbeResidency bool",
	"Config.RemapEntries int",
	"Config.TrackLifetimes bool",
	"Config.UseFBTSecondLevel bool",
}

var paramsShapeGolden = []string{
	"Params.NumCUs int",
	"Params.Scale int",
	"Params.Seed uint64",
	"Params.WarpsPerCU int",
}

func TestConfigShapeGolden(t *testing.T) {
	checkShape(t, reflect.TypeOf(core.Config{}), configShapeGolden)
}

func TestParamsShapeGolden(t *testing.T) {
	checkShape(t, reflect.TypeOf(workloads.Params{}), paramsShapeGolden)
}

func checkShape(t *testing.T, typ reflect.Type, golden []string) {
	t.Helper()
	got := fingerprint.Paths(typ)
	if strings.Join(got, "\n") != strings.Join(golden, "\n") {
		t.Errorf("%s layout drifted from its shape golden.\ngot:\n%s\n\nwant:\n%s",
			typ, strings.Join(got, "\n"), strings.Join(golden, "\n"))
		t.Log("new fields are hashed into cache keys automatically; update the golden to acknowledge that existing cache entries are invalidated")
	}
}
