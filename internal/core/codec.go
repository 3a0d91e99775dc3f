// Results encoding: the one serialization of core.Results. The artifact
// cache stores it, the job daemon serves it and the result digests hash
// it, so the library, the CLI and the daemon speak the same bytes.
package core

import (
	"encoding/json"
	"fmt"
	"strconv"

	"vcache/internal/fingerprint"
)

const (
	// SimVersion identifies the simulator's behavioural version. Bump it
	// whenever a change makes simulations produce different Results for an
	// identical (trace, Config) pair — it is part of every result cache
	// key, so stale entries stop matching.
	//
	// v3: an opt-in warp-batched translation front end. The default
	// per-line path is schedule-identical to v2, but Config and Results
	// grew fields, so every fingerprint moves.
	//
	// v4: one schedule. Every run executes the partitioned schedule, which
	// the CLI, figure suite and daemon already ran; library runs
	// (System.Run, RunContext without options, the facade) move onto it.
	// Back-to-back kernels on one System now start each kernel's CU
	// engines at the backend clock instead of cycle 0, so multi-kernel
	// results (tenant churn, context switches) change. Single-kernel
	// results of the canonical path are unchanged.
	//
	// v5: the batched front end's Config and Results fields are gone;
	// every surviving field keeps its v4 value.
	//
	// v6: one engine. Every partition's events run on the System's one
	// clock, so the residency probe (ProbeResidency, Figure 2) reads the
	// L2 at the per-CU TLB miss's cycle instead of at the end of its
	// window, and lifetime observations (TrackLifetimes) are stored in
	// firing order (the same multiset). Every other field keeps its v5
	// value.
	SimVersion = 6
)

// ConfigFingerprint hashes a Config's JSON document plus the simulator
// version. JSON carries every exported field (including nested component
// configs), so a Config field that changes simulation behaviour can never
// be silently left out of a cache key; see
// TestFingerprintCoversEveryConfigField in internal/artifact for the
// guard.
func ConfigFingerprint(c Config) fingerprint.Sum {
	doc, err := json.Marshal(c)
	if err != nil {
		// Unreachable: Config holds only plain data; MMUKind encodes every
		// value.
		panic(fmt.Errorf("core: encoding config: %w", err))
	}
	return fingerprint.Hash("core.Config", doc, []byte(strconv.Itoa(SimVersion)))
}

// EncodeResults renders r as its canonical JSON document: json.Marshal's
// output plus a newline. Identical Results always give identical bytes
// (fields in declaration order, no maps, floats in their shortest form
// that parses back to the same bits), so byte equality of two encodings
// is the definition of identical results. The encoding is lossless:
// DecodeResults gives back r, lifetime CDFs included.
func EncodeResults(r Results) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Unreachable: Results holds only plain data with finite floats;
		// the round-trip tests pin this.
		panic(fmt.Errorf("core: encoding results: %w", err))
	}
	return append(b, '\n')
}

// DecodeResults parses a document EncodeResults wrote. Malformed input
// returns an error; the artifact cache counts it as a miss and
// recomputes.
func DecodeResults(b []byte) (Results, error) {
	var r Results
	if err := json.Unmarshal(b, &r); err != nil {
		return Results{}, fmt.Errorf("core: decoding results: %w", err)
	}
	return r, nil
}
