package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vcache/internal/memory"
)

func sampleTrace() *Trace {
	b := NewBuilder("sample", 3, 2, 2)
	b.Warp().Load(0x1000, 0x2000).Compute(5)
	b.Warp().Store(0x3000).ScratchLoad(2)
	b.Barrier()
	b.Warp().Load(0x4000)
	return b.Build()
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, tr := range []*Trace{sampleTrace(), buildTestTrace(t, 4, 3, 5, 40)} {
		for _, opts := range []ChunkOptions{{}, {Budget: 1 << 10}, {Budget: 1 << 10, Compress: true}} {
			got := roundTrip(t, tr, opts)
			if !reflect.DeepEqual(tr, got) {
				t.Fatalf("%s %+v: round trip changed the trace", tr.Name, opts)
			}
			if got.Summarize() != tr.Summarize() {
				t.Fatalf("%s %+v: summaries differ", tr.Name, opts)
			}
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTrace().WriteChunked(&a, ChunkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sampleTrace().WriteChunked(&b, ChunkOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces encoded to different bytes")
	}
}

func TestSaveLoad(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "x.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("save/load changed the trace")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading missing file succeeded")
	}
}

// decode opens data as a v4 stream and reads it to the end.
func decode(data []byte) error {
	c, err := NewCursor(bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Materialize()
	return err
}

func encoded(t *testing.T, opts ChunkOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace().WriteChunked(&buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRejectsGarbage(t *testing.T) {
	if err := decode([]byte("not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
	bad := encoded(t, ChunkOptions{})
	bad[0] = 'X' // magic
	if err := decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not reported as such: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	for _, opts := range []ChunkOptions{{}, {Compress: true}} {
		data := encoded(t, opts)
		if err := decode(data); err != nil {
			t.Fatalf("%+v: intact stream rejected: %v", opts, err)
		}
		// Flip every byte in turn: each corruption must be caught (by a
		// structural check or a checksum), never panic, never pass.
		for i := range data {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0xff
			if decode(bad) == nil {
				t.Fatalf("%+v: corruption at byte %d/%d accepted", opts, i, len(data))
			}
		}
		// Every truncation must fail too.
		for n := 0; n < len(data); n++ {
			if decode(data[:n]) == nil {
				t.Fatalf("%+v: truncation to %d/%d bytes accepted", opts, n, len(data))
			}
		}
	}
}

// The helpers below hand-assemble v4 streams with valid checksums, so a
// test can declare anything and the decoder's structural checks, not its
// crcs, must do the rejecting.

// uvs encodes xs as consecutive uvarints.
func uvs(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// oneWarp is the header after the magic for name "h", ASID 1 and one CU
// with one warp, uncompressed.
var oneWarp = append(append(uvs(0, 1), 'h'), uvs(1, 1, 1)...)

// handFile frames a header (the fields after the magic) and chunk frames
// into a v4 stream whose footer declares len(frames) chunks, no premap
// pages, the given per-warp totals and an empty summary.
func handFile(header []byte, frames [][]byte, totals ...uint64) []byte {
	return handFilePremap(header, frames, nil, totals...)
}

// handFilePremap is handFile with the given premap pages in the footer.
func handFilePremap(header []byte, frames [][]byte, premap []uint64, totals ...uint64) []byte {
	b := append(chunkFileMagic[:len(chunkFileMagic):len(chunkFileMagic)], header...)
	b = binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
	var rollup uint64
	for _, f := range frames {
		b = append(b, f...)
		rollup = crc64.Update(rollup, crcTable, f[len(f)-8:])
	}
	footer := len(b)
	body := binary.LittleEndian.AppendUint64(uvs(uint64(len(frames))), rollup)
	body = append(body, uvs(uint64(len(premap)))...)
	body = append(body, uvs(premap...)...)
	body = append(body, uvs(totals...)...)
	body = append(body, uvs(0, 0, 0, 0, 0, 0, 0)...)
	body = append(body, make([]byte, 16)...)
	b = append(b, footerMarker)
	b = append(b, body...)
	b = binary.LittleEndian.AppendUint64(b, crc64.Checksum(body, crcTable))
	b = binary.LittleEndian.AppendUint64(b, uint64(footer))
	return append(b, chunkTrailerMagic[:]...)
}

// handFrame frames a decoded chunk payload, uncompressed.
func handFrame(payload []byte) []byte {
	b := append([]byte{chunkMarker}, uvs(uint64(len(payload)), uint64(len(payload)))...)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(payload, crcTable))
}

// handChunk is the payload of a one-segment chunk for (cu 0, warp 0)
// holding insts, followed by an arena of the given addresses.
func handChunk(insts []Inst, arena ...memory.VAddr) []byte {
	return handArena(handRecords(uvs(1, 0, 0, uint64(len(insts))), insts...), arena...)
}

// handRecords appends insts to b as encoded instruction records.
func handRecords(b []byte, insts ...Inst) []byte {
	for _, in := range insts {
		b = append(b, byte(in.Kind))
		b = binary.LittleEndian.AppendUint16(b, in.Lanes)
		b = binary.LittleEndian.AppendUint32(b, in.Off)
		b = binary.LittleEndian.AppendUint64(b, in.Cycles)
	}
	return b
}

// handArena appends a chunk arena of the given addresses to b.
func handArena(b []byte, arena ...memory.VAddr) []byte {
	b = append(b, uvs(uint64(len(arena)))...)
	for _, a := range arena {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
	}
	return b
}

func TestReadCapsDeclaredSizes(t *testing.T) {
	valid := handFile(oneWarp, [][]byte{handFrame(handChunk([]Inst{{Kind: Load, Lanes: 1}}, 0x1000))}, 1)
	if err := decode(valid); err != nil {
		t.Fatalf("hand-made stream rejected: %v", err)
	}
	cases := map[string][]byte{
		"name length":    handFile(uvs(0, 1<<40), nil),
		"CU count":       handFile(uvs(0, 0, 1, 1<<63), nil),
		"warp count":     handFile(uvs(0, 0, 1, 1, 1<<40), nil),
		"chunk length":   handFile(oneWarp, [][]byte{append([]byte{chunkMarker}, uvs(1<<40, 1<<40)...)}, 0),
		"segment length": handFile(oneWarp, [][]byte{handFrame(uvs(1, 0, 0, 1<<62))}, 0),
		"arena length":   handFile(oneWarp, [][]byte{handFrame(uvs(0, 1<<40))}, 0),
		// Declared sizes under the caps but far beyond the data that
		// follows must fail on the missing data, not allocate first.
		"segment over a short payload": handFile(oneWarp, [][]byte{handFrame(uvs(1, 0, 0, maxInstsPerWarp-1))}, 0),
		"arena over a short payload":   handFile(oneWarp, [][]byte{handFrame(uvs(0, maxArenaLen-1))}, 0),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: absurd declared size accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s: decoding allocated %d bytes before failing", name, grew)
		}
	}
}

func TestReadValidatesArenaRefs(t *testing.T) {
	past := handFile(oneWarp, [][]byte{handFrame(handChunk([]Inst{{Kind: Load, Lanes: 2, Off: 1}}, 0x1000, 0x2000))}, 1)
	if err := decode(past); err == nil || !strings.Contains(err.Error(), "arena") {
		t.Fatalf("lane range past the chunk arena not reported as such: %v", err)
	}
	zero := handFile(oneWarp, [][]byte{handFrame(handChunk([]Inst{{Kind: Load}}, 0x1000))}, 1)
	if err := decode(zero); err == nil {
		t.Fatal("zero-lane load accepted")
	}

	// The writer refuses to encode what the decoder would reject.
	tr := sampleTrace()
	tr.CUs[0].Warps[0][0].Off = uint32(len(tr.Arena)) // now out of bounds
	if err := tr.WriteChunked(&bytes.Buffer{}, ChunkOptions{}); err == nil || !strings.Contains(err.Error(), "arena") {
		t.Fatalf("out-of-arena lane reference encoded: %v", err)
	}
	wide := NewBuilder("wide", 1, 1, 1)
	wide.Warp().Load(make([]memory.VAddr, maxLanes+1)...)
	if err := wide.Build().WriteChunked(&bytes.Buffer{}, ChunkOptions{}); err == nil {
		t.Fatalf("load of %d lanes encoded", maxLanes+1)
	}
	// A lane count past maxLanes is refused on any instruction, even one
	// that has no lanes to reference, by the writer as by the decoder.
	tr = sampleTrace()
	tr.CUs[0].Warps[0][1].Lanes = maxLanes + 1 // the compute after the first load
	const over = "cu 0 warp 0 inst 1: compute with 4097 lanes (limit 4096)"
	if err := tr.WriteChunked(&bytes.Buffer{}, ChunkOptions{}); err == nil || !strings.Contains(err.Error(), over) {
		t.Fatalf("compute of %d lanes: WriteChunked = %v", maxLanes+1, err)
	}
	laned := handFile(oneWarp, [][]byte{handFrame(handChunk([]Inst{{Kind: Compute, Lanes: maxLanes + 1, Cycles: 1}}))}, 1)
	if err := decode(laned); err == nil || !strings.Contains(err.Error(), "chunk 0: cu 0 warp 0 inst 0: compute with 4097 lanes") {
		t.Fatalf("compute of %d lanes: Materialize = %v", maxLanes+1, err)
	}
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace failed validation: %v", err)
	}
}

// TestUnknownKindsRejected: Validate rejects an instruction of no known
// kind, so a System returns an error for it, and the chunk decoder, which
// checks every chunk with Validate, rejects one in a file.
func TestUnknownKindsRejected(t *testing.T) {
	tr := sampleTrace()
	tr.CUs[1].Warps[0] = append(tr.CUs[1].Warps[0], Inst{Kind: Barrier + 1})
	const want = "cu 1 warp 0 inst 3: unknown instruction kind 6"
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want an error containing %q", err, want)
	}
	if err := tr.WriteChunked(&bytes.Buffer{}, ChunkOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("WriteChunked = %v, want an error containing %q", err, want)
	}
	bad := handFile(oneWarp, [][]byte{handFrame(handChunk([]Inst{{Kind: Compute, Cycles: 1}, {Kind: 9}}))}, 2)
	if err := decode(bad); err == nil || !strings.Contains(err.Error(), "chunk 0: cu 0 warp 0 inst 1: unknown instruction kind 9") {
		t.Fatalf("Materialize of an unknown kind = %v", err)
	}
}

// twoSegmentChunk is the payload of a chunk holding two segments of
// (cu 0, warp 0) over one arena: a load of 0x2000, then a compute and a
// store of 0x1000 and 0x2000.
func twoSegmentChunk() []byte {
	payload := handRecords(uvs(2, 0, 0, 1), Inst{Kind: Load, Lanes: 1, Off: 1})
	payload = handRecords(append(payload, uvs(0, 0, 2)...), Inst{Kind: Compute, Cycles: 4}, Inst{Kind: Store, Lanes: 2})
	return handArena(payload, 0x1000, 0x2000)
}

// TestSecondSegmentAppends: a chunk may carry two segments of one warp,
// as many segments as the stream has warps; the second continues the
// first, and both index the chunk's arena.
func TestSecondSegmentAppends(t *testing.T) {
	twoWarps := append(append(uvs(0, 1), 'h'), uvs(1, 1, 2)...)
	c, err := NewCursor(bytes.NewReader(handFile(twoWarps, [][]byte{handFrame(twoSegmentChunk())}, 3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	b := NewBuilder("h", 1, 1, 2)
	b.Warp().Load(0x2000).Compute(4).Store(0x1000, 0x2000)
	want := b.Build()
	if !sameReplay(got, want) {
		t.Fatalf("two segments of one warp replay as %+v over %#x", got.CUs[0].Warps[0], got.Arena)
	}
}

// TestChunkErrorNamesPackageOnce: a chunk that fails to decode is named
// in its error, after the package, which the error names once — here the
// two segments TestSecondSegmentAppends accepts on a stream of two warps,
// on a stream of one — whether Materialize reports it or replay does
// (NextSegment, then Err, which also matches ErrCursorExhausted).
func TestChunkErrorNamesPackageOnce(t *testing.T) {
	file := handFile(oneWarp, [][]byte{handFrame(twoSegmentChunk())}, 3)
	check := func(path string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) || strings.Count(err.Error(), "trace: ") != 1 {
			t.Errorf("%s: two segments on one warp = %v, want an error containing %q that names the package once", path, err, want)
		}
	}
	check("Materialize", decode(file), "trace: chunk 0: segment count 2 exceeds limit 1")

	c, err := NewCursor(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.NextSegment(0, 0); ok {
		t.Fatal("NextSegment returned a segment of a corrupt chunk")
	}
	check("NextSegment", c.Err(), "trace: chunk stream exhausted: chunk 0: segment count 2 exceeds limit 1")
	if !errors.Is(c.Err(), ErrCursorExhausted) {
		t.Errorf("replay error %v does not match ErrCursorExhausted", c.Err())
	}
}

// wideLaneFile is a one-warp v4 stream whose only load has a lane at
// 1<<48, beyond the modeled virtual address space, while its footer is
// well formed. testdata/wide-lane.v4 holds these bytes for the tests of
// the packages that replay files.
func wideLaneFile() []byte {
	chunk := handChunk([]Inst{{Kind: Load, Lanes: 2}}, 0x1000, 1<<memory.VABits|0x2000)
	return handFile(oneWarp, [][]byte{handFrame(chunk)}, 1)
}

// TestWideAddressesRejected: addresses at or beyond 1<<48 (VPNs at or
// beyond 1<<36) would alias lower ones in the page table, so every
// way a trace enters is checked — Validate (and so WriteChunked), a
// chunk's lanes and the footer's premap — and the errors name the access.
func TestWideAddressesRejected(t *testing.T) {
	b := NewBuilder("wide", 1, 1, 2)
	b.Warp().Load(0x1000)
	b.Warp().Compute(1).Load(0x3000, 0x10000000+1<<memory.VABits)
	tr := b.Build()
	const want = "cu 0 warp 1 inst 1: lane 1 address 0x1000010000000 beyond the 48-bit virtual address space"
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want an error containing %q", err, want)
	}
	if err := tr.WriteChunked(&bytes.Buffer{}, ChunkOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("WriteChunked = %v, want an error containing %q", err, want)
	}

	err := decode(wideLaneFile())
	if err == nil || !strings.Contains(err.Error(), "chunk 0: cu 0 warp 0 inst 0: lane 1 address 0x1000000002000") {
		t.Fatalf("Materialize of a wide lane = %v", err)
	}
	fixture, rerr := os.ReadFile(filepath.Join("testdata", "wide-lane.v4"))
	if rerr != nil || !bytes.Equal(fixture, wideLaneFile()) {
		t.Fatalf("testdata/wide-lane.v4 differs from wideLaneFile (read error %v)", rerr)
	}

	chunk := handChunk([]Inst{{Kind: Load, Lanes: 1}}, 0x1000)
	for _, vpn := range []uint64{1<<memory.VPNBits - 1, 1 << memory.VPNBits} {
		_, err := NewCursor(bytes.NewReader(handFilePremap(oneWarp, [][]byte{handFrame(chunk)}, []uint64{1, vpn}, 1)))
		if ok := vpn < 1<<memory.VPNBits; ok != (err == nil) {
			t.Fatalf("premap VPN %#x: open error %v", vpn, err)
		}
	}
}
