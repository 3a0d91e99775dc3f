// Package fingerprint derives stable, canonical hashes of Go values for
// content-addressed caching. The hash covers both the *shape* of a value
// (type names, field names, kinds, in declaration order) and its contents,
// so renaming a field, changing its type, or changing its value all
// produce a different fingerprint. That self-describing framing is what
// makes the artifact cache safe: a cache key derived from a config struct
// automatically incorporates every field the struct ever grows, and any
// structural drift invalidates old entries instead of silently matching
// them.
//
// The walker deliberately supports only plain data: booleans, integers,
// floats, strings, structs, arrays, slices and pointers. Maps (iteration
// order), functions and channels have no canonical byte representation and
// panic — a config struct holding one is a design error, and the panic is
// what the coverage guard tests lean on.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
)

// Sum is a 256-bit fingerprint.
type Sum [32]byte

// String returns the fingerprint in lowercase hex.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// Hash fingerprints the given parts in order. Each part is framed with its
// full type identity, so Hash(1) differs from Hash(int64(1)) and from
// Hash(1, 2)'s prefix.
func Hash(parts ...any) Sum {
	h := sha256.New()
	for _, p := range parts {
		writeValue(h, reflect.ValueOf(p))
	}
	var out Sum
	copy(out[:], h.Sum(nil))
	return out
}

// TypeHash fingerprints a type's structure only: its name, kind, and
// (recursively) its fields' names and types, ignoring values. Two types
// have equal TypeHashes exactly when the canonical encoding of their
// values is interchangeable, so a cache key can hash it as a schema
// version that changes whenever the struct does.
func TypeHash(t reflect.Type) Sum {
	h := sha256.New()
	writeType(h, t, make(map[reflect.Type]bool))
	var out Sum
	copy(out[:], h.Sum(nil))
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

// writeType emits a type's canonical structural description.
func writeType(w io.Writer, t reflect.Type, seen map[reflect.Type]bool) {
	if seen[t] {
		io.WriteString(w, "(cycle)")
		return
	}
	io.WriteString(w, t.String())
	writeByte(w, byte(t.Kind()))
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Array:
		seen[t] = true
		writeType(w, t.Elem(), seen)
		delete(seen, t)
	case reflect.Struct:
		seen[t] = true
		writeUint(w, uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			io.WriteString(w, f.Name)
			writeType(w, f.Type, seen)
		}
		delete(seen, t)
	}
}

// writeValue emits a value's canonical encoding: type framing followed by
// contents.
func writeValue(w io.Writer, v reflect.Value) {
	if !v.IsValid() {
		io.WriteString(w, "(nil-any)")
		return
	}
	t := v.Type()
	io.WriteString(w, t.String())
	writeByte(w, byte(t.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			writeByte(w, 1)
		} else {
			writeByte(w, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		writeUint(w, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		writeUint(w, v.Uint())
	case reflect.Float32, reflect.Float64:
		writeUint(w, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		writeUint(w, uint64(len(s)))
		io.WriteString(w, s)
	case reflect.Ptr:
		if v.IsNil() {
			writeByte(w, 0)
		} else {
			writeByte(w, 1)
			writeValue(w, v.Elem())
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			// Fast path for []byte (fingerprints composed of fingerprints).
			writeUint(w, uint64(v.Len()))
			w.Write(v.Bytes())
			return
		}
		writeUint(w, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			writeValue(w, v.Index(i))
		}
	case reflect.Struct:
		writeUint(w, uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			io.WriteString(w, t.Field(i).Name)
			writeValue(w, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("fingerprint: unsupported kind %s (type %s) — maps, funcs, chans and interfaces have no canonical encoding", v.Kind(), t))
	}
}

func writeByte(w io.Writer, b byte) { w.Write([]byte{b}) }

func writeUint(w io.Writer, x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	w.Write(buf[:])
}
