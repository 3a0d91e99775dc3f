// Results codec: a deterministic binary encoding of core.Results for the
// on-disk artifact cache (internal/artifact). The encoder walks the struct
// reflectively in declaration order, so every field — present and future —
// is incorporated automatically; a fingerprint of the struct's shape is
// baked into the header, so bytes written under an older Results layout
// fail decoding cleanly (and the cache recomputes) instead of being
// misinterpreted. TestResultsCodecShapeGolden additionally forces any
// shape change to be acknowledged in a committed golden.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"vcache/internal/fingerprint"
	"vcache/internal/stats"
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

	// resultsCodecVersion is the wire-format version of EncodeResults.
	resultsCodecVersion = 1

	resultsMagic = 0x76637273 // "vcrs"
)

// resultsShape fingerprints the Results struct layout; the first 8 bytes
// ride in every encoded payload as a schema check.
var resultsShape = fingerprint.TypeHash(reflect.TypeOf(Results{}))

// cdfType is special-cased by the codec: stats.CDF has unexported storage,
// round-tripped through Values/CDFOf.
var cdfType = reflect.TypeOf(stats.CDF{})

// ConfigFingerprint canonically hashes a Config plus the simulator
// version. Every exported field (including nested component configs) is
// incorporated by reflection, so a Config field that changes simulation
// behaviour can never be silently left out of a cache key; see
// TestFingerprintCoversConfig in internal/artifact for the guard.
func ConfigFingerprint(c Config) fingerprint.Sum {
	return fingerprint.Hash("core.Config", c, SimVersion)
}

// EncodeResults serializes r deterministically: identical Results always
// produce identical bytes (floats are encoded by bit pattern, there are no
// maps, and field order is declaration order).
func EncodeResults(r Results) []byte {
	b := make([]byte, 0, 2048)
	b = appendUint32(b, resultsMagic)
	b = binary.AppendUvarint(b, resultsCodecVersion)
	b = append(b, resultsShape[:8]...)
	b = encodeValue(b, reflect.ValueOf(r))
	return b
}

// DecodeResults parses bytes produced by EncodeResults. Corrupt or
// truncated input, or input written under a different codec version or
// Results layout, returns an error — callers (the artifact cache) treat
// that as a miss and recompute.
func DecodeResults(data []byte) (Results, error) {
	d := &resultsDecoder{data: data}
	if magic := d.uint32(); magic != resultsMagic {
		return Results{}, fmt.Errorf("core: results codec: bad magic %#x", magic)
	}
	if v := d.uvarint(); v != resultsCodecVersion {
		return Results{}, fmt.Errorf("core: results codec: version %d (want %d)", v, resultsCodecVersion)
	}
	shape := d.bytes(8)
	if d.err == nil && string(shape) != string(resultsShape[:8]) {
		return Results{}, fmt.Errorf("core: results codec: struct shape changed since encoding")
	}
	var r Results
	d.decodeValue(reflect.ValueOf(&r).Elem())
	if d.err != nil {
		return Results{}, d.err
	}
	if d.off != len(d.data) {
		return Results{}, fmt.Errorf("core: results codec: %d trailing bytes", len(d.data)-d.off)
	}
	return r, nil
}

// --- encoding -------------------------------------------------------------

func encodeValue(b []byte, v reflect.Value) []byte {
	if v.Type() == cdfType {
		// CDF: encode the observation multiset.
		cdf := v.Interface().(stats.CDF)
		return encodeFloats(b, cdf.Values())
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return appendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	case reflect.Ptr:
		if v.IsNil() {
			return append(b, 0)
		}
		b = append(b, 1)
		return encodeValue(b, v.Elem())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float64 {
			return encodeFloats(b, v.Interface().([]float64))
		}
		if v.IsNil() {
			return binary.AppendUvarint(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		for i := 0; i < v.Len(); i++ {
			b = encodeValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				panic(fmt.Sprintf("core: results codec: unexported field %s.%s needs a codec special case (like stats.CDF)", t, t.Field(i).Name))
			}
			b = encodeValue(b, v.Field(i))
		}
		return b
	default:
		panic(fmt.Sprintf("core: results codec: unsupported kind %s in Results", v.Kind()))
	}
}

// encodeFloats writes a nil-distinguishing float64 slice (0 = nil, else
// len+1 followed by bit patterns).
func encodeFloats(b []byte, xs []float64) []byte {
	if xs == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(xs))+1)
	for _, x := range xs {
		b = appendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendUint32(b []byte, x uint32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

func appendUint64(b []byte, x uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	return append(b, buf[:]...)
}

// --- decoding -------------------------------------------------------------

type resultsDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *resultsDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: results codec: "+format, args...)
	}
}

func (d *resultsDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail("truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out
}

func (d *resultsDecoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *resultsDecoder) uint32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *resultsDecoder) uint64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *resultsDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

func (d *resultsDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

// floats reads a slice written by encodeFloats, capping the declared
// length against the bytes actually remaining.
func (d *resultsDecoder) floats() []float64 {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(len(d.data)-d.off)/8 {
		d.fail("float slice of %d elements exceeds remaining input", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(d.uint64())
	}
	return out
}

func (d *resultsDecoder) decodeValue(v reflect.Value) {
	if d.err != nil {
		return
	}
	if v.Type() == cdfType {
		v.Set(reflect.ValueOf(stats.CDFOf(d.floats())))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(d.byte() != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(d.varint())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(d.uvarint())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Float64frombits(d.uint64()))
	case reflect.String:
		n := d.uvarint()
		if n > uint64(len(d.data)-d.off) {
			d.fail("string of %d bytes exceeds remaining input", n)
			return
		}
		v.SetString(string(d.bytes(int(n))))
	case reflect.Ptr:
		if d.byte() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		p := reflect.New(v.Type().Elem())
		d.decodeValue(p.Elem())
		v.Set(p)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float64 {
			v.Set(reflect.ValueOf(d.floats()))
			return
		}
		n := d.uvarint()
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		n--
		// Each element consumes at least one byte, so this cap bounds
		// allocation by input size.
		if n > uint64(len(d.data)-d.off) {
			d.fail("slice of %d elements exceeds remaining input", n)
			return
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		for i := 0; i < int(n); i++ {
			d.decodeValue(s.Index(i))
		}
		v.Set(s)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			d.decodeValue(v.Field(i))
		}
	default:
		d.fail("unsupported kind %s", v.Kind())
	}
}
