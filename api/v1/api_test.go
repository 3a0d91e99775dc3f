package apiv1

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/fingerprint"
	"vcache/internal/workloads"
)

func validSpecJSON() string {
	return `{
		"api_version": "v1",
		"workload": {"name": "bfs", "params": {"scale": 1}},
		"design": {"preset": "vc-opt"}
	}`
}

func TestDecodeJobSpecValid(t *testing.T) {
	spec, err := DecodeJobSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatalf("DecodeJobSpec: %v", err)
	}
	cfg, p, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if cfg.Name != core.DesignVCOpt().Name {
		t.Errorf("resolved design %q, want %q", cfg.Name, core.DesignVCOpt().Name)
	}
	if p.Scale != 1 || p.NumCUs == 0 {
		t.Errorf("params not normalized: %+v", p)
	}
}

func TestDecodeJobSpecRejects(t *testing.T) {
	// An otherwise valid inline config that still carries the removed
	// batched-translation switch: an old client's batched job must fail,
	// not silently run per-line.
	preset, err := json.Marshal(core.DesignBaseline512())
	if err != nil {
		t.Fatal(err)
	}
	removedConfigField := `{"api_version":"v1","workload":{"name":"bfs"},"design":{"config":{"BatchedTranslation":true,` +
		string(preset[1:]) + `}}`
	cases := []struct {
		name string
		body string
		frag string // expected substring of the error
	}{
		{"empty", ``, "body"},
		{"not json", `{{`, "body"},
		{"unknown top-level field", `{"api_version":"v1","workload":{"name":"bfs"},"design":{"preset":"vc"},"bogus":1}`, "bogus"},
		{"unknown nested field", `{"api_version":"v1","workload":{"name":"bfs","pararms":{}},"design":{"preset":"vc"}}`, "pararms"},
		{"trailing garbage", validSpecJSON() + `{"again":true}`, "trailing"},
		{"missing api_version", `{"workload":{"name":"bfs"},"design":{"preset":"vc"}}`, "api_version"},
		{"wrong api_version", `{"api_version":"v2","workload":{"name":"bfs"},"design":{"preset":"vc"}}`, "api_version"},
		{"missing workload", `{"api_version":"v1","design":{"preset":"vc"}}`, "workload.name"},
		{"unknown workload", `{"api_version":"v1","workload":{"name":"doom"},"design":{"preset":"vc"}}`, "doom"},
		{"missing design", `{"api_version":"v1","workload":{"name":"bfs"},"design":{}}`, "preset or config"},
		{"unknown preset", `{"api_version":"v1","workload":{"name":"bfs"},"design":{"preset":"quantum"}}`, "quantum"},
		{"preset and config", `{"api_version":"v1","workload":{"name":"bfs"},"design":{"preset":"vc","config":{}}}`, "mutually exclusive"},
		{"invalid inline config", `{"api_version":"v1","workload":{"name":"bfs"},"design":{"config":{}}}`, "design.config"},
		{"bad mmu kind", `{"api_version":"v1","workload":{"name":"bfs"},"design":{"config":{"Kind":"telepathic"}}}`, "telepathic"},
		{"negative override", `{"api_version":"v1","workload":{"name":"bfs"},"design":{"preset":"vc","iommu_lookups_per_cycle":-1}}`, "iommu_lookups_per_cycle"},
		{"removed batched override", `{"api_version":"v1","workload":{"name":"bfs"},"design":{"preset":"baseline-512","batched_translation":true}}`, `unknown field "batched_translation"`},
		{"removed batched config field", removedConfigField, `unknown field "BatchedTranslation"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Must error, never panic — these are network inputs.
			_, err := DecodeJobSpec([]byte(tc.body))
			if err == nil {
				t.Fatalf("DecodeJobSpec accepted %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestDecodeJobSpecSizeLimit(t *testing.T) {
	big := `{"api_version":"v1","workload":{"name":"` + strings.Repeat("x", MaxSpecBytes) + `"}}`
	if _, err := DecodeJobSpec([]byte(big)); err == nil {
		t.Fatal("oversized spec accepted")
	}
}

func TestPresetsResolve(t *testing.T) {
	want := []string{"ideal", "baseline-512", "baseline-16k", "baseline-large-tlb", "baseline-2level",
		"vc", "vc-opt", "vc-opt-dsr", "l1-only-vc-32", "l1-only-vc-128"}
	if got := Presets(); !reflect.DeepEqual(got, want) {
		t.Errorf("Presets() = %v, want %v", got, want)
	}
	for _, name := range Presets() {
		cfg, ok := PresetConfig(name)
		if !ok {
			t.Fatalf("listed preset %q does not resolve", name)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	for alias, canon := range map[string]string{"baseline512": "baseline-512", "baseline16k": "baseline-16k", "vcopt": "vc-opt", "VC-OPT": "vc-opt"} {
		got, ok := PresetConfig(alias)
		want, _ := PresetConfig(canon)
		if !ok || got.Name != want.Name {
			t.Errorf("alias %q: got (%q,%v), want %q", alias, got.Name, ok, want.Name)
		}
	}
}

func TestDesignOverrides(t *testing.T) {
	lookups, entries := 4, 64
	spec := JobSpec{
		APIVersion: Version,
		Workload:   WorkloadSpec{Name: "bfs"},
		Design: DesignSpec{
			Preset:               "baseline-512",
			ProbeResidency:       true,
			LargePages:           true,
			IOMMULookupsPerCycle: &lookups,
			PerCUTLBEntries:      &entries,
		},
	}
	cfg, _, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if !cfg.ProbeResidency || !cfg.LargePages {
		t.Errorf("boolean overrides not applied: %+v", cfg)
	}
	if cfg.IOMMU.LookupsPerCycle != lookups {
		t.Errorf("IOMMU.LookupsPerCycle = %d, want %d", cfg.IOMMU.LookupsPerCycle, lookups)
	}
	if cfg.PerCUTLB.Entries != entries {
		t.Errorf("PerCUTLB.Entries = %d, want %d", cfg.PerCUTLB.Entries, entries)
	}
}

// TestConfigJSONRoundTrip proves every exported Config leaf survives the
// wire: for each leaf (walked reflectively, so future fields are covered
// automatically), mutate it, marshal, strictly unmarshal, and require the
// fingerprint — which the guard tests in internal/artifact prove covers
// every leaf — to be preserved. A field with a wrong/missing JSON mapping
// would come back unmutated and keep the base fingerprint. The
// fingerprint hashes the Config's JSON, so such a field would also leave
// the fingerprint unmoved by its mutation, which fails here first.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := core.DesignVCOpt()
	base := core.ConfigFingerprint(cfg)
	n := fingerprint.MutateLeaves(cfg, func(path string, mutated any) {
		m := mutated.(core.Config)
		want := core.ConfigFingerprint(m)
		if want == base {
			t.Fatalf("%s: mutation did not move the fingerprint; guard broken", path)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", path, err)
		}
		var back core.Config
		dec := json.NewDecoder(strings.NewReader(string(b)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("%s: unmarshal: %v", path, err)
		}
		if got := core.ConfigFingerprint(back); got != want {
			t.Errorf("%s: fingerprint changed across JSON round trip — field not on the wire", path)
		}
	})
	if n < 40 {
		t.Fatalf("walked only %d Config leaves — the reflective walk is broken", n)
	}
}

// TestParamsJSONRoundTrip is the same guard for workloads.Params, keyed by
// the artifact trace key.
func TestParamsJSONRoundTrip(t *testing.T) {
	p := workloads.DefaultParams()
	base := artifact.TraceKey("bfs", p)
	n := fingerprint.MutateLeaves(p, func(path string, mutated any) {
		m := mutated.(workloads.Params)
		want := artifact.TraceKey("bfs", m)
		if want == base {
			t.Fatalf("%s: mutation did not move the trace key; guard broken", path)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: marshal: %v", path, err)
		}
		var back workloads.Params
		dec := json.NewDecoder(strings.NewReader(string(b)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("%s: unmarshal: %v", path, err)
		}
		if got := artifact.TraceKey("bfs", back); got != want {
			t.Errorf("%s: trace key changed across JSON round trip — field not on the wire", path)
		}
	})
	if n != 4 {
		t.Fatalf("walked %d Params leaves, want 4", n)
	}
}

func TestMMUKindJSON(t *testing.T) {
	for _, k := range []core.MMUKind{core.IdealMMU, core.PhysicalBaseline, core.VirtualHierarchy, core.L1OnlyVirtual} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back core.MMUKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v via %s", k, back, b)
		}
	}
	var k core.MMUKind
	if err := json.Unmarshal([]byte(`"physical-baseline"`), &k); err != nil || k != core.PhysicalBaseline {
		t.Errorf("name form: got %v, %v", k, err)
	}
	if err := json.Unmarshal([]byte(`1`), &k); err != nil || k != core.MMUKind(1) {
		t.Errorf("integer form: got %v, %v", k, err)
	}
	if err := json.Unmarshal([]byte(`"warp-drive"`), &k); err == nil {
		t.Error("unknown kind name accepted")
	}
}

func TestEncodeResultsRoundTrip(t *testing.T) {
	r := core.Results{Workload: "bfs", Design: "VC-OPT", Kind: core.VirtualHierarchy, Cycles: 12345}
	b := EncodeResults(r)
	if b[len(b)-1] != '\n' {
		t.Error("canonical encoding must be newline-terminated")
	}
	if string(EncodeResults(r)) != string(b) {
		t.Error("encoding is not deterministic")
	}
	back, err := DecodeResults(b)
	if err != nil {
		t.Fatalf("DecodeResults: %v", err)
	}
	if back.Workload != r.Workload || back.Cycles != r.Cycles || back.Kind != r.Kind {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestJobStateTerminal(t *testing.T) {
	for s, want := range map[JobState]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobFailed: true, JobCanceled: true,
	} {
		if s.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", s, !want, want)
		}
	}
}

func TestSpecErrorUnwrap(t *testing.T) {
	spec := JobSpec{APIVersion: Version, Workload: WorkloadSpec{Name: "bfs"},
		Design: DesignSpec{Config: &core.Config{}}}
	_, _, err := spec.Resolve()
	var ce *core.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("invalid-config SpecError does not unwrap to *core.ConfigError: %v", err)
	}
}
