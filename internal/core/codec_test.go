package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/fingerprint"
	"vcache/internal/stats"
)

// fillDistinct sets every leaf field of v to a distinct value, so an
// encoding that drops or mixes up any field fails the round-trip
// comparison below — including fields added later, since the walk is
// reflective.
func fillDistinct(v reflect.Value, n *uint64) {
	if v.Type() == reflect.TypeOf(stats.CDF{}) {
		var c stats.CDF
		for i := 0; i < 3; i++ {
			*n++
			c.Add(float64(*n) + 0.5)
		}
		v.Set(reflect.ValueOf(c))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		v.SetUint(*n)
	case reflect.Float32, reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		*n++
		v.SetString(strings.Repeat("s", int(*n%5)+1))
	case reflect.Ptr:
		p := reflect.New(v.Type().Elem())
		fillDistinct(p.Elem(), n)
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < 3; i++ {
			fillDistinct(s.Index(i), n)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), n)
		}
	default:
		panic("fillDistinct: unsupported kind " + v.Kind().String())
	}
}

func sampleResults() Results {
	var r Results
	var n uint64
	fillDistinct(reflect.ValueOf(&r).Elem(), &n)
	return r
}

// roundTripCases are the Results every encoding test round-trips: every
// field distinct (lifetime CDFs included), and the same with an empty
// IOMMU series and lifetime CDF, which must not come back nil, beside a
// nil CDF, which must.
func roundTripCases() map[string]Results {
	empty := sampleResults()
	empty.IOMMUSamples = []float64{}
	empty.Lifetimes.TLBEntries = stats.CDFOf([]float64{})
	empty.Lifetimes.L1Data = stats.CDF{}
	return map[string]Results{"distinct": sampleResults(), "empty": empty}
}

// RoundTripCases exports roundTripCases to the package's external tests.
var RoundTripCases = roundTripCases

// TestResultsCodecRoundTrip is the encoding's coverage guard: every field
// of Results (found reflectively, so new fields are included
// automatically) is set to a distinct value and must survive
// encode/decode exactly.
func TestResultsCodecRoundTrip(t *testing.T) {
	for name, r := range roundTripCases() {
		b := EncodeResults(r)
		got, err := DecodeResults(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("%s: round trip changed Results:\n in: %+v\nout: %+v", name, r, got)
		}
		if !bytes.Equal(b, EncodeResults(got)) {
			t.Fatalf("%s: encoding is not deterministic across a round trip", name)
		}
	}
}

func TestResultsCodecZeroValue(t *testing.T) {
	var r Results
	got, err := DecodeResults(EncodeResults(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatal("zero-value Results changed in round trip")
	}
	if got.IOMMUSamples != nil || got.Lifetimes != nil {
		t.Fatal("nil fields decoded non-nil")
	}
}

func TestResultsCodecRejectsCorruption(t *testing.T) {
	b := EncodeResults(sampleResults())
	for name, data := range map[string][]byte{
		"empty":          nil,
		"truncated":      b[:len(b)/2],
		"trailing":       append(append([]byte(nil), b...), '0'),
		"mistyped field": []byte(`{"Cycles":"many"}`),
		"mistyped CDF":   []byte(`{"Lifetimes":{"L1Data":{}}}`),
	} {
		if _, err := DecodeResults(data); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
}

// resultsShapeGolden pins the Results layout that every cached result on
// disk was written against; artifact.ResultKey hashes this layout.
// Adding, removing, renaming or retyping an exported field changes
// fingerprint.Paths and fails this test until the golden is updated — a
// deliberate acknowledgement that the changed layout has invalidated
// existing cache entries.
var resultsShapeGolden = []string{
	"Results.Cycles uint64",
	"Results.DRAM.Reads uint64",
	"Results.DRAM.Writes uint64",
	"Results.Design string",
	"Results.FBT.Allocations uint64",
	"Results.FBT.CoherenceFiltered uint64",
	"Results.FBT.CoherenceForwarded uint64",
	"Results.FBT.Evictions uint64",
	"Results.FBT.PPNHits uint64",
	"Results.FBT.PPNLookups uint64",
	"Results.FBT.RWSynonymFaults uint64",
	"Results.FBT.SecondaryTLBHits uint64",
	"Results.FBT.SecondaryTLBMiss uint64",
	"Results.FBT.ShootdownsApplied uint64",
	"Results.FBT.ShootdownsFiltered uint64",
	"Results.FBT.SynonymAccesses uint64",
	"Results.FBTInvalLines uint64",
	"Results.Faults.PageFaults uint64",
	"Results.Faults.PermFaults uint64",
	"Results.Faults.RWSynonym uint64",
	"Results.GPU.Barriers uint64",
	"Results.GPU.CoalescedReqs uint64",
	"Results.GPU.ComputeCycles uint64",
	"Results.GPU.Instructions uint64",
	"Results.GPU.LaneAccesses uint64",
	"Results.GPU.MemInsts uint64",
	"Results.GPU.ScratchOps uint64",
	"Results.IOMMU.FBTHits uint64",
	"Results.IOMMU.Faults uint64",
	"Results.IOMMU.MaxDelay uint64",
	"Results.IOMMU.MergedWalks uint64",
	"Results.IOMMU.QueueDelay uint64",
	"Results.IOMMU.Requests uint64",
	"Results.IOMMU.TLBHits uint64",
	"Results.IOMMU.TLBMisses uint64",
	"Results.IOMMU.Walks uint64",
	"Results.IOMMUDelayP50 float64",
	"Results.IOMMUDelayP95 float64",
	"Results.IOMMUDelayP99 float64",
	"Results.IOMMUFracAbove1 float64",
	"Results.IOMMURate.Max float64",
	"Results.IOMMURate.Mean float64",
	"Results.IOMMURate.Min float64",
	"Results.IOMMURate.N int",
	"Results.IOMMURate.StdDev float64",
	"Results.IOMMUSamples[] float64",
	"Results.Kind core.MMUKind",
	"Results.L1.Evictions uint64",
	"Results.L1.Fills uint64",
	"Results.L1.Invalidated uint64",
	"Results.L1.ReadHits uint64",
	"Results.L1.ReadMisses uint64",
	"Results.L1.WriteHits uint64",
	"Results.L1.WriteMisses uint64",
	"Results.L1.Writebacks uint64",
	"Results.L1FullFlushes uint64",
	"Results.L2.Evictions uint64",
	"Results.L2.Fills uint64",
	"Results.L2.Invalidated uint64",
	"Results.L2.ReadHits uint64",
	"Results.L2.ReadMisses uint64",
	"Results.L2.WriteHits uint64",
	"Results.L2.WriteMisses uint64",
	"Results.L2.Writebacks uint64",
	"Results.L2DistinctPages int",
	"Results.Lifetimes[].L1Data stats.CDF",
	"Results.Lifetimes[].L2Data stats.CDF",
	"Results.Lifetimes[].TLBEntries stats.CDF",
	"Results.LineMerges uint64",
	"Results.PerCUTLB.Evictions uint64",
	"Results.PerCUTLB.Hits uint64",
	"Results.PerCUTLB.Inserts uint64",
	"Results.PerCUTLB.Misses uint64",
	"Results.PerCUTLB.Shootdowns uint64",
	"Results.Probe.L1Hit uint64",
	"Results.Probe.L2Hit uint64",
	"Results.Probe.MemAccess uint64",
	"Results.Probe.TLBMisses uint64",
	"Results.RemapHits uint64",
	"Results.SynonymReplays uint64",
	"Results.TLBMerges uint64",
	"Results.Workload string",
}

func TestResultsCodecShapeGolden(t *testing.T) {
	got := fingerprint.Paths(reflect.TypeOf(Results{}))
	if strings.Join(got, "\n") != strings.Join(resultsShapeGolden, "\n") {
		t.Errorf("Results layout drifted from resultsShapeGolden.\ngot:\n%s\n\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(resultsShapeGolden, "\n"))
		t.Log("the JSON encoding already covers the new layout; update the golden to acknowledge the cache invalidation")
	}
}

// FuzzResultsCodec: decoding arbitrary bytes never panics, and any
// document that decodes re-encodes to a canonical form that is a fixed
// point of decode→encode.
func FuzzResultsCodec(f *testing.F) {
	f.Add(EncodeResults(sampleResults()))
	f.Add(EncodeResults(Results{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResults(data)
		if err != nil {
			return
		}
		b := EncodeResults(r)
		r2, err := DecodeResults(b)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v", err)
		}
		if !bytes.Equal(b, EncodeResults(r2)) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
