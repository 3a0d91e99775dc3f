// Package fingerprint derives the content-addressed keys of the artifact
// cache and of the job daemon's run coalescing. A key is a SHA-256 over a
// domain string and byte parts, each length-prefixed, so no two
// different part lists hash the same byte stream. The parts are canonical
// encodings their callers choose: core.ConfigFingerprint hashes a Config's
// JSON document, artifact.TraceKey the JSON of normalized
// workloads.Params. JSON carries every exported field, so a field a
// config struct grows joins its key without a change here; the
// mutate-every-leaf guards (MutateLeaves) prove it field by field.
//
// Paths lists a type's exported leaf fields. The shape goldens compare it
// against committed lists, and the result key hashes the Results layout
// through it: JSON decoding ignores unknown fields and zero-fills missing
// ones, so an entry written under another layout must not match.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
)

// Sum is a 256-bit fingerprint.
type Sum [32]byte

// String returns the fingerprint in lowercase hex.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// Hash fingerprints domain and parts in order. The domain and each part
// are framed by their length, so Hash("d", []byte("ab"), []byte("c"))
// differs from Hash("d", []byte("a"), []byte("bc")), and keys of
// different domains hash different byte streams.
func Hash(domain string, parts ...[]byte) Sum {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(domain)))
	h.Write(n[:])
	h.Write([]byte(domain))
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var out Sum
	h.Sum(out[:0])
	return out
}

// Paths returns the exported leaf-field paths of t with their types, one
// "A.B.C kind" string per leaf, sorted. Guard tests compare this against a
// committed golden list: adding an exported field to a fingerprinted
// config struct changes the list and fails the test until the addition is
// acknowledged (at which point the changed fingerprint has already
// invalidated stale cache entries).
func Paths(t reflect.Type) []string {
	var out []string
	walkPaths(t, t.Name(), &out, 0)
	sort.Strings(out)
	return out
}

func walkPaths(t reflect.Type, prefix string, out *[]string, depth int) {
	if depth > 32 {
		panic("fingerprint: type nesting too deep (recursive type?)")
	}
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Array:
		walkPaths(t.Elem(), prefix+"[]", out, depth+1)
	case reflect.Struct:
		exported := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			exported++
			walkPaths(f.Type, prefix+"."+f.Name, out, depth+1)
		}
		if exported == 0 {
			// Opaque struct (e.g. stats.CDF): a leaf from the caller's
			// point of view — it must encode itself (stats.CDF has
			// MarshalJSON).
			*out = append(*out, fmt.Sprintf("%s %s", prefix, t.String()))
		}
	default:
		*out = append(*out, fmt.Sprintf("%s %s", prefix, t.String()))
	}
}
