// Package apiv1 is the versioned JSON wire schema of the vcsimd
// simulation service: job specifications that validate into core.Config
// and workloads.Params through error-returning constructors (no panic is
// reachable from network input), the job/queue/health response documents,
// the SSE event records, and the canonical JSON encoding of simulation
// results.
//
// Versioning: every JobSpec carries "api_version": "v1" and every wire
// type lives under the /v1/ URL prefix. Additive schema growth (new
// optional fields) stays within v1 — unknown fields are rejected on
// decode, so clients learn immediately when they speak a newer dialect
// than the server. A breaking change mints api/v2 alongside this package.
//
// The spec layer is deliberately thin over the simulator's own config
// structs: a DesignSpec names a preset (the Table 2 designs every CLI
// already exposes) or carries a full core.Config, plus the common
// overrides. New Config/Params fields join the wire automatically, and the
// round-trip guard tests in this package (driven by
// fingerprint.MutateLeaves) fail if a field is ever excluded from JSON.
// Cache keys hash the same JSON (core.ConfigFingerprint,
// artifact.TraceKey), so the guards also prove every field reaches the
// keys.
package apiv1

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// Version is the wire-schema version this package implements.
const Version = "v1"

// MaxSpecBytes bounds a job submission body. A JobSpec is a few hundred
// bytes of JSON even with a full inline Config; a megabyte is generous and
// keeps hostile bodies from ballooning server memory.
const MaxSpecBytes = 1 << 20

// JobSpec is a job submission: which workload to simulate under which MMU
// design, at what queue priority.
type JobSpec struct {
	// APIVersion must be "v1".
	APIVersion string `json:"api_version"`
	// Workload selects and parameterizes the trace generator.
	Workload WorkloadSpec `json:"workload"`
	// Design selects the MMU design to simulate.
	Design DesignSpec `json:"design"`
	// Priority orders the queue: higher drains first, ties FIFO. Admission
	// control is priority-blind (a full queue 429s every submission).
	Priority int `json:"priority,omitempty"`
}

// WorkloadSpec names a catalog workload and its generation parameters.
type WorkloadSpec struct {
	// Name is a workload from the catalog (see Workloads or vcsim -list).
	Name string `json:"name"`
	// Params are the generation parameters; zero fields take their
	// defaults (workloads.Params.Normalized).
	Params workloads.Params `json:"params,omitempty"`
}

// DesignSpec selects an MMU design: a named preset, or a full inline
// core.Config, plus the common overrides the CLIs expose. Exactly one of
// Preset and Config must be set.
type DesignSpec struct {
	// Preset is a named design ("baseline-512", "vc-opt", ... — see
	// Presets).
	Preset string `json:"preset,omitempty"`
	// Config is a full simulator configuration, for callers sweeping
	// non-preset design points.
	Config *core.Config `json:"config,omitempty"`

	// Overrides, applied after the preset/config resolves.
	ProbeResidency bool `json:"probe_residency,omitempty"`
	LargePages     bool `json:"large_pages,omitempty"`
	// IOMMULookupsPerCycle overrides shared-TLB bandwidth (0 = unlimited).
	IOMMULookupsPerCycle *int `json:"iommu_lookups_per_cycle,omitempty"`
	// PerCUTLBEntries overrides the per-CU TLB entry count (0 = infinite).
	PerCUTLBEntries *int `json:"per_cu_tlb_entries,omitempty"`
}

// presetAliases are historical spellings accepted on input but never
// listed; canonical names come from core.Designs (vcsim's -design values).
var presetAliases = map[string]string{
	"baseline512": "baseline-512",
	"baseline16k": "baseline-16k",
	"vcopt":       "vc-opt",
}

// Presets returns the named design presets in their canonical (paper)
// order.
func Presets() []string {
	names := make([]string, len(core.Designs))
	for i, d := range core.Designs {
		names[i] = d.Name
	}
	return names
}

// PresetConfig resolves a preset name (case-insensitively, accepting the
// historical aliases) to its design configuration.
func PresetConfig(name string) (core.Config, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := presetAliases[n]; ok {
		n = canon
	}
	return core.DesignByName(n)
}

// SpecError reports an invalid JobSpec: which part is wrong and why. It is
// the network-input analogue of core.ConfigError, and wraps one when the
// resolved configuration fails core validation.
type SpecError struct {
	Field  string // offending spec field, e.g. "design.preset"
	Reason string
	Err    error // underlying error (e.g. *core.ConfigError), if any
}

func (e *SpecError) Error() string {
	return "apiv1: invalid job spec: " + e.Field + ": " + e.Reason
}

func (e *SpecError) Unwrap() error { return e.Err }

// Validate checks the spec without resolving it fully; Resolve performs
// the complete validation including core.Config.Validate.
func (s JobSpec) Validate() error {
	_, _, err := s.Resolve()
	return err
}

// Resolve validates the spec and produces the simulator configuration and
// workload parameters a run needs. All failures are *SpecError; nothing a
// network peer sends can reach a panicking constructor.
func (s JobSpec) Resolve() (core.Config, workloads.Params, error) {
	var zero core.Config
	if s.APIVersion != Version {
		return zero, workloads.Params{}, &SpecError{
			Field:  "api_version",
			Reason: fmt.Sprintf("got %q, this server speaks %q", s.APIVersion, Version),
		}
	}
	if s.Workload.Name == "" {
		return zero, workloads.Params{}, &SpecError{Field: "workload.name", Reason: "missing"}
	}
	if _, ok := workloads.ByName(s.Workload.Name); !ok {
		return zero, workloads.Params{}, &SpecError{
			Field:  "workload.name",
			Reason: fmt.Sprintf("unknown workload %q (known: %s)", s.Workload.Name, strings.Join(workloads.Names(), ", ")),
		}
	}
	p := s.Workload.Params.Normalized()

	var cfg core.Config
	switch {
	case s.Design.Preset != "" && s.Design.Config != nil:
		return zero, workloads.Params{}, &SpecError{Field: "design", Reason: "preset and config are mutually exclusive"}
	case s.Design.Preset != "":
		var ok bool
		if cfg, ok = PresetConfig(s.Design.Preset); !ok {
			return zero, workloads.Params{}, &SpecError{
				Field:  "design.preset",
				Reason: fmt.Sprintf("unknown preset %q (known: %s)", s.Design.Preset, strings.Join(Presets(), ", ")),
			}
		}
	case s.Design.Config != nil:
		cfg = *s.Design.Config
	default:
		return zero, workloads.Params{}, &SpecError{Field: "design", Reason: "one of preset or config is required"}
	}

	cfg.ProbeResidency = cfg.ProbeResidency || s.Design.ProbeResidency
	cfg.LargePages = cfg.LargePages || s.Design.LargePages
	if v := s.Design.IOMMULookupsPerCycle; v != nil {
		if *v < 0 {
			return zero, workloads.Params{}, &SpecError{Field: "design.iommu_lookups_per_cycle", Reason: fmt.Sprintf("must be >= 0 (0 = unlimited), got %d", *v)}
		}
		cfg = cfg.WithIOMMUBandwidth(*v)
	}
	if v := s.Design.PerCUTLBEntries; v != nil {
		if *v < 0 {
			return zero, workloads.Params{}, &SpecError{Field: "design.per_cu_tlb_entries", Reason: fmt.Sprintf("must be >= 0 (0 = infinite), got %d", *v)}
		}
		cfg = cfg.WithPerCUTLB(*v)
	}
	if err := cfg.Validate(); err != nil {
		return zero, workloads.Params{}, &SpecError{Field: "design.config", Reason: err.Error(), Err: err}
	}
	return cfg, p, nil
}

// DecodeJobSpec strictly decodes one JobSpec from data: unknown fields,
// trailing garbage and oversized bodies are all errors, and the decoded
// spec is fully resolved (so a nil error means the spec will construct a
// valid system). This is the only entry point the server uses for network
// input.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	if len(data) > MaxSpecBytes {
		return spec, &SpecError{Field: "body", Reason: fmt.Sprintf("spec exceeds %d bytes", MaxSpecBytes)}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, &SpecError{Field: "body", Reason: err.Error(), Err: err}
	}
	if dec.More() {
		return spec, &SpecError{Field: "body", Reason: "trailing data after job spec"}
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// ReadJobSpec is DecodeJobSpec over a bounded reader (an HTTP body).
func ReadJobSpec(r io.Reader) (JobSpec, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxSpecBytes+1))
	if err != nil {
		return JobSpec{}, &SpecError{Field: "body", Reason: err.Error(), Err: err}
	}
	return DecodeJobSpec(data)
}

// ---------------------------------------------------------------------------
// Response documents

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle. Queued jobs wait for a worker; running jobs occupy one;
// done/failed/canceled are terminal.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobInfo is the job status document (submit and status responses).
type JobInfo struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Workload string   `json:"workload"`
	Design   string   `json:"design"`
	Priority int      `json:"priority,omitempty"`
	// Fingerprint is the job's content address: the artifact-cache result
	// key of (workload, params, config). Identical submissions share it.
	Fingerprint string `json:"fingerprint"`
	// CacheHit marks a job answered from the artifact cache without
	// simulating; Coalesced marks one attached to an identical in-flight
	// run instead of enqueuing its own.
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	// Cycles is the simulated GPU cycle count, present once done.
	Cycles uint64 `json:"cycles,omitempty"`
	// WallMS is the job's wall-clock time from submission to completion.
	WallMS float64 `json:"wall_ms,omitempty"`
	// Result is the canonical results document, inlined only on
	// wait-mode submissions (POST /v1/jobs?wait=1).
	Result json.RawMessage `json:"result,omitempty"`
}

// QueueInfo is the queue introspection document.
type QueueInfo struct {
	Workers  int `json:"workers"`
	Busy     int `json:"busy"`
	Queued   int `json:"queued"`
	QueueCap int `json:"queue_cap"`
	// Jobs lists running jobs first, then queued jobs in drain order
	// (priority desc, FIFO within a priority).
	Jobs []JobInfo `json:"jobs"`
}

// ResultsIndex is the cached-results index document (GET /v1/results):
// the fingerprints the daemon's shared artifact cache currently holds a
// result for. A fingerprint here matches JobInfo.Fingerprint, so a client
// can tell before submitting whether a (workload, params, design) point
// is already answered. The listing paginates by fingerprint order:
// Total counts every cached result, Results holds the page at Offset.
type ResultsIndex struct {
	APIVersion string        `json:"api_version"`
	Total      int           `json:"total"`
	Offset     int           `json:"offset"`
	Results    []ResultEntry `json:"results"`
}

// ResultEntry is one cached result in a ResultsIndex.
type ResultEntry struct {
	// Fingerprint is the result's content address (hex), comparable to
	// JobInfo.Fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Bytes is the canonical result document's size.
	Bytes int64 `json:"bytes"`
}

// Health is the health-check document.
type Health struct {
	Status        string  `json:"status"`
	APIVersion    string  `json:"api_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	Queued        int     `json:"queued"`
	JobsDone      uint64  `json:"jobs_done"`
}

// ErrorBody is the JSON error document every non-2xx response carries.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// Event is one SSE record on a job's event stream.
type Event struct {
	// Type is "state" (lifecycle transition), "progress" (simulation
	// advancement), "metrics" (a metrics-registry snapshot), or "done"
	// (terminal; carries the final state and error, if any).
	Type  string   `json:"type"`
	Job   string   `json:"job,omitempty"`
	State JobState `json:"state,omitempty"`
	// Cycle and Events report progress (core.Progress).
	Cycle  uint64 `json:"cycle,omitempty"`
	Events uint64 `json:"events,omitempty"`
	// Metrics is a metrics-registry snapshot in obs JSON form
	// ({"cycle":N,"metrics":{...}}), emitted at run completion.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// ---------------------------------------------------------------------------
// Canonical results encoding

// EncodeResults renders simulation results as the service's canonical JSON
// byte string, core.EncodeResults: a deterministic, newline-terminated,
// lossless document, the same bytes the artifact cache stores. Byte
// equality of two encodings is the service's definition of "identical
// results" — the duplicate-submission CI check and the warm-vs-cold
// acceptance test both compare these bytes directly.
func EncodeResults(r core.Results) []byte { return core.EncodeResults(r) }

// DecodeResults parses a canonical results document (core.DecodeResults).
func DecodeResults(b []byte) (core.Results, error) { return core.DecodeResults(b) }

// ErrNotFound is returned by the client for 404 responses.
var ErrNotFound = errors.New("apiv1: not found")
