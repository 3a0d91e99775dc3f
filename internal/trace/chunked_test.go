package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"vcache/internal/memory"
)

// buildTestTrace assembles a deterministic multi-warp, multi-phase trace
// with divergent and coalesced accesses, scratch ops, computes and
// barriers — enough variety to exercise every chunk encoding path.
func buildTestTrace(t *testing.T, numCUs, warpsPerCU, phases, warpsPerPhase int) *Trace {
	t.Helper()
	b := NewBuilder("chunktest", 7, numCUs, warpsPerCU)
	emitTestTrace(b, phases, warpsPerPhase)
	return b.Build()
}

func emitTestTrace(b *Builder, phases, warpsPerPhase int) {
	rng := rand.New(rand.NewSource(42))
	for ph := 0; ph < phases; ph++ {
		for wk := 0; wk < warpsPerPhase; wk++ {
			w := b.Warp()
			var addrs []memory.VAddr
			for lane := 0; lane < 8+rng.Intn(24); lane++ {
				addrs = append(addrs, memory.VAddr(rng.Intn(1<<24))&^7)
			}
			w.Load(addrs...)
			w.Compute(uint64(1 + rng.Intn(50)))
			w.ScratchLoad(4)
			base := memory.VAddr(rng.Intn(1 << 22))
			var st []memory.VAddr
			for lane := 0; lane < 16; lane++ {
				st = append(st, base+memory.VAddr(lane*8))
			}
			w.Store(st...)
			w.ScratchStore(2)
		}
		b.Barrier()
	}
}

// chunkTrace encodes tr with WriteChunked and opens a cursor over the
// bytes.
func chunkTrace(t *testing.T, tr *Trace, opts ChunkOptions) (*Cursor, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, opts); err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	return c, buf.Bytes()
}

// drainWarp pulls every segment for (cu, warp) and returns the
// concatenated instructions with lane addresses resolved.
func drainWarp(c *Cursor, cu, warp int) (insts []Inst, addrs [][]memory.VAddr) {
	for {
		seg, ok := c.NextSegment(cu, warp)
		if !ok {
			return
		}
		for _, in := range seg.Insts {
			insts = append(insts, in)
			if in.Kind == Load || in.Kind == Store {
				a := append([]memory.VAddr(nil), seg.Arena[in.Off:uint64(in.Off)+uint64(in.Lanes)]...)
				addrs = append(addrs, a)
			} else {
				addrs = append(addrs, nil)
			}
		}
	}
}

// materializedPremap replicates System.Prepare's page walk order over a
// materialized trace: cu-major, warp-major, instruction order, lane order.
func materializedPremap(tr *Trace) []memory.VPN { return tr.FirstTouchVPNs() }

func TestChunkedRoundTrip(t *testing.T) {
	for _, opt := range []ChunkOptions{
		{},                // single big chunk
		{Budget: 1 << 10}, // many small chunks
		{Budget: 1 << 10, Compress: true},
		{Compress: true},
	} {
		opt := opt
		t.Run(fmt.Sprintf("budget=%d,compress=%v", opt.Budget, opt.Compress), func(t *testing.T) {
			tr := buildTestTrace(t, 4, 3, 5, 40)
			c, _ := chunkTrace(t, tr, opt)
			defer c.Close()

			if c.Name() != tr.Name || c.ASID() != tr.ASID {
				t.Fatalf("identity: got (%q, %d), want (%q, %d)", c.Name(), c.ASID(), tr.Name, tr.ASID)
			}
			if c.NumCUs() != len(tr.CUs) {
				t.Fatalf("NumCUs = %d, want %d", c.NumCUs(), len(tr.CUs))
			}
			for cu := range tr.CUs {
				if c.NumWarps(cu) != len(tr.CUs[cu].Warps) {
					t.Fatalf("NumWarps(%d) = %d, want %d", cu, c.NumWarps(cu), len(tr.CUs[cu].Warps))
				}
				for wi, warp := range tr.CUs[cu].Warps {
					if got := c.WarpLen(cu, wi); got != uint64(len(warp)) {
						t.Fatalf("WarpLen(%d,%d) = %d, want %d", cu, wi, got, len(warp))
					}
				}
			}
			// Stream every warp and compare instruction-by-instruction.
			for cu := range tr.CUs {
				for wi, warp := range tr.CUs[cu].Warps {
					insts, addrs := drainWarp(c, cu, wi)
					if len(insts) != len(warp) {
						t.Fatalf("warp (%d,%d): streamed %d insts, want %d", cu, wi, len(insts), len(warp))
					}
					for i, in := range warp {
						got := insts[i]
						if got.Kind != in.Kind || got.Lanes != in.Lanes || got.Cycles != in.Cycles {
							t.Fatalf("warp (%d,%d) inst %d: got %+v, want %+v", cu, wi, i, got, in)
						}
						if in.Kind == Load || in.Kind == Store {
							if !reflect.DeepEqual(addrs[i], append([]memory.VAddr(nil), tr.Addrs(in)...)) {
								t.Fatalf("warp (%d,%d) inst %d: lane addresses differ", cu, wi, i)
							}
						}
					}
				}
			}
			if err := c.Err(); err != nil {
				t.Fatalf("cursor error after drain: %v", err)
			}
		})
	}
}

func TestChunkedSummaryMatchesMaterialized(t *testing.T) {
	tr := buildTestTrace(t, 4, 3, 4, 30)
	c, _ := chunkTrace(t, tr, ChunkOptions{Budget: 1 << 11})
	defer c.Close()
	want := tr.Summarize()
	if got := c.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("footer summary\n got %+v\nwant %+v", got, want)
	}
}

func TestChunkedPremapMatchesPrepareOrder(t *testing.T) {
	tr := buildTestTrace(t, 4, 3, 4, 30)
	// Exercise several interleavings: premap order must be independent of
	// chunking.
	for _, budget := range []int{0, 1 << 10, 1 << 14} {
		c, _ := chunkTrace(t, tr, ChunkOptions{Budget: budget})
		want := materializedPremap(tr)
		if got := c.Premap(); !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: premap order differs (got %d pages, want %d)", budget, len(got), len(want))
		}
		c.Close()
	}
}

func TestChunkedMultiChunkAndProgress(t *testing.T) {
	tr := buildTestTrace(t, 4, 3, 5, 40)
	var calls int
	var bytesSeen int
	var buf bytes.Buffer
	err := tr.WriteChunked(&buf, ChunkOptions{Budget: 1 << 10, OnChunk: func(i, stored int) {
		if i != calls {
			t.Fatalf("OnChunk index %d, want %d", i, calls)
		}
		calls++
		bytesSeen += stored
	}})
	if err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	if calls < 4 {
		t.Fatalf("expected several chunks at a 1KB budget, got %d", calls)
	}
	if bytesSeen == 0 {
		t.Fatal("OnChunk reported zero stored bytes")
	}
	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer c.Close()
	if c.NumChunks() != calls {
		t.Fatalf("NumChunks = %d, OnChunk saw %d", c.NumChunks(), calls)
	}
}

func TestStreamingBuilderMatchesMaterialized(t *testing.T) {
	// The same generator body run through a streaming builder must
	// reproduce the materialized trace exactly, including arena order
	// (generation order == emission order).
	mat := NewBuilder("chunktest", 7, 4, 3)
	emitTestTrace(mat, 5, 40)
	want := mat.Build()

	var buf bytes.Buffer
	cw := NewChunkWriter(&buf, "chunktest", 7, 4, 3, ChunkOptions{Budget: 1 << 12})
	sb := NewStreamingBuilder(cw)
	emitTestTrace(sb, 5, 40)
	if sb.Build() != nil {
		t.Fatal("streaming builder Build() should return nil")
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer c.Close()
	got, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("streamed trace materializes differently from direct generation")
	}
	if s := cw.Summary(); !reflect.DeepEqual(s, want.Summarize()) {
		t.Fatalf("writer summary\n got %+v\nwant %+v", s, want.Summarize())
	}
}

// TestStreamBytesGolden pins the v4 encoding byte for byte, cut points
// included: what a streaming Builder writes for emitTestTrace, where
// chunks are cut mid-phase, after a per-warp barrier and at a barrier's
// quarter budget, and what WriteChunked writes for the built trace. Stored
// streams and tracegen -o files are compared byte for byte across
// versions of this package, so a moved hash is a format change.
func TestStreamBytesGolden(t *testing.T) {
	for _, c := range []struct {
		budget            int
		streamed, written string
	}{
		{1 << 10, "de5270250ca5ea043e7e7f758815d0003dc3d031cbe9770a791a59beebfc1d6f", "db2f6e9b97f81dc6b8a5116184c5ee5d8f5c45d9129cc7132b1705b7f41dcde1"},
		{1 << 12, "ecb2f08257911b6b1ce532f0050c5bdf78210f98898c2471a37778a10681c3db", "3c0229a4c5c388715ea0117c70341552c03ab452201f133ecd3923e3f7eec896"},
	} {
		var buf bytes.Buffer
		cw := NewChunkWriter(&buf, "chunktest", 7, 4, 3, ChunkOptions{Budget: c.budget})
		emitTestTrace(NewStreamingBuilder(cw), 5, 40)
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.streamed {
			t.Errorf("budget %d: streamed bytes hash to %s, want %s", c.budget, got, c.streamed)
		}
		buf.Reset()
		if err := buildTestTrace(t, 4, 3, 5, 40).WriteChunked(&buf, ChunkOptions{Budget: c.budget}); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.written {
			t.Errorf("budget %d: WriteChunked bytes hash to %s, want %s", c.budget, got, c.written)
		}
	}
}

// TestChunkedVersionMismatchErrors: files in a retired format fail at
// open with an error naming their version and the way to regenerate them.
func TestChunkedVersionMismatchErrors(t *testing.T) {
	v3 := append([]byte("VCTRACE\x03"), uvs(6)...) // a v3 whole-file header
	v3 = append(v3, "sample"...)
	for version, data := range map[int][]byte{3: v3, 2: []byte("VCTRACE\x02garbage")} {
		_, err := NewCursor(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("cursor accepted a v%d trace", version)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("version %d", version)) || !strings.Contains(msg, "tracegen -o") {
			t.Fatalf("v%d rejection does not name the version and tracegen -o: %v", version, err)
		}
	}
}

func TestChunkedCorruptionDetected(t *testing.T) {
	tr := buildTestTrace(t, 2, 2, 3, 10)
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, ChunkOptions{Budget: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	// Truncation at any prefix must fail at open or during streaming.
	for _, n := range []int{0, 7, 8, len(orig) / 3, len(orig) / 2, len(orig) - 1} {
		if decode(orig[:n]) == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// A bit flip anywhere must fail at open or during streaming: the
	// header, chunk payloads and footer are all crc'd. Sample positions
	// across the whole file.
	step := len(orig)/97 + 1
	for pos := 0; pos < len(orig); pos += step {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x40
		if bytes.Equal(mut, orig) {
			continue
		}
		if decode(mut) == nil {
			t.Fatalf("bit flip at offset %d decoded without error", pos)
		}
	}
}

func TestChunkedEmptyishTrace(t *testing.T) {
	b := NewBuilder("tiny", 1, 1, 1)
	b.Warp().Compute(3)
	tr := b.Build()
	c, _ := chunkTrace(t, tr, ChunkOptions{})
	defer c.Close()
	insts, _ := drainWarp(c, 0, 0)
	if len(insts) != 1 || insts[0].Kind != Compute || insts[0].Cycles != 3 {
		t.Fatalf("tiny trace streamed %+v", insts)
	}
	if s := c.Summary(); s.ComputeInsts != 1 || s.MemInsts != 0 {
		t.Fatalf("tiny summary %+v", s)
	}
}

// TestIsChunkedFile: Save writes a chunked (v4) file, whatever the trace,
// and that file opens for streaming with its footer summary intact.
func TestIsChunkedFile(t *testing.T) {
	tr := buildTestTrace(t, 2, 2, 2, 6)
	path := filepath.Join(t.TempDir(), "v4.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, chunkFileMagic[:]) {
		t.Fatalf("saved file starts %q, want the v4 magic %q", data[:8], chunkFileMagic[:])
	}
	c, err := OpenCursorFile(path)
	if err != nil {
		t.Fatalf("OpenCursorFile: %v", err)
	}
	if c.Summary() != tr.Summarize() {
		t.Fatal("saved footer summary differs from the trace's")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteChunkedOutOfOrderArena covers traces whose arena is not in
// emission order: a junk prefix no access references, and an access that
// re-reads an earlier access's lanes. Both still encode, replay the same
// instructions on the same addresses, and come back with the arena packed
// in stream order, which a second round trip keeps exactly.
func TestWriteChunkedOutOfOrderArena(t *testing.T) {
	junk := buildTestTrace(t, 4, 3, 5, 40)
	junk.Arena = append([]memory.VAddr{0xdead000, 0xbeef000}, junk.Arena...)
	shared := buildTestTrace(t, 4, 3, 5, 40)
	for _, tr := range []*Trace{junk, shared} {
		for c := range tr.CUs {
			for w, warp := range tr.CUs[c].Warps {
				for i := range warp {
					in := &tr.CUs[c].Warps[w][i]
					if in.Kind != Load && in.Kind != Store {
						continue
					}
					if tr == junk {
						in.Off += 2
					} else if c == 2 && w == 1 && i > len(warp)/2 {
						in.Off, in.Lanes = 0, 1 // the trace's first lane address
					}
				}
			}
		}
	}
	for name, tr := range map[string]*Trace{"junk prefix": junk, "shared lanes": shared} {
		got := roundTrip(t, tr, ChunkOptions{Budget: 1 << 10})
		if !sameReplay(tr, got) {
			t.Fatalf("%s: round trip changed what the trace replays", name)
		}
		if reflect.DeepEqual(tr.Arena, got.Arena) {
			t.Fatalf("%s: arena kept its out-of-order layout", name)
		}
		if again := roundTrip(t, got, ChunkOptions{Budget: 1 << 10}); !reflect.DeepEqual(got, again) {
			t.Fatalf("%s: second round trip is not exact", name)
		}
	}
}

// roundTrip writes tr with WriteChunked and materializes the stream.
func roundTrip(t testing.TB, tr *Trace, opts ChunkOptions) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, opts); err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer c.Close()
	got, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return got
}

// sameReplay reports whether a and b replay identically: same identity
// and shape, and warp by warp the same instructions on the same lane
// addresses, wherever those sit in the arena.
func sameReplay(a, b *Trace) bool {
	if a.Name != b.Name || a.ASID != b.ASID || len(a.CUs) != len(b.CUs) {
		return false
	}
	for c := range a.CUs {
		if len(a.CUs[c].Warps) != len(b.CUs[c].Warps) {
			return false
		}
		for w, wa := range a.CUs[c].Warps {
			wb := b.CUs[c].Warps[w]
			if len(wa) != len(wb) {
				return false
			}
			for i, in := range wa {
				o := wb[i]
				if in.Kind != o.Kind || in.Lanes != o.Lanes || in.Cycles != o.Cycles {
					return false
				}
				if (in.Kind == Load || in.Kind == Store) && !slices.Equal(a.Addrs(in), b.Addrs(o)) {
					return false
				}
			}
		}
	}
	return true
}

func FuzzChunkRoundTrip(f *testing.F) {
	small := buildFuzzSeed(1, 1, 1, 2)
	multi := buildFuzzSeed(2, 2, 3, 8)
	var plain, tiny, compressed bytes.Buffer
	if err := multi.WriteChunked(&plain, ChunkOptions{Budget: 1 << 10}); err != nil {
		f.Fatal(err)
	}
	if err := small.WriteChunked(&tiny, ChunkOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := multi.WriteChunked(&compressed, ChunkOptions{Budget: 1 << 10, Compress: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(tiny.Bytes())
	f.Add(compressed.Bytes())
	f.Add([]byte{})
	f.Add(chunkFileMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewCursor(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, not panic — reaching here is success
		}
		defer c.Close()
		tr, err := c.Materialize()
		if err != nil || c.Err() != nil {
			return // mid-stream corruption surfaced as an error: success
		}
		// Anything the cursor fully accepts must be a valid, replayable
		// trace that re-chunks and re-streams to the same replay, and
		// whose materialization then round-trips exactly.
		tr.Summarize()
		tr2 := roundTrip(t, tr, ChunkOptions{Budget: 1 << 10})
		if !sameReplay(tr, tr2) {
			t.Fatal("chunked round trip changed an accepted trace's replay")
		}
		if tr3 := roundTrip(t, tr2, ChunkOptions{Budget: 1 << 10}); !reflect.DeepEqual(tr2, tr3) {
			t.Fatal("chunked round trip is not stable")
		}
	})
}

// TestWriteChunkedAllocations pins what encoding a built trace costs: the
// writer allocates one lane block for a full chunk and reuses it, and the
// chunk's instruction slices, for every chunk, so WriteChunked of 2^20
// lanes in three default-budget chunks allocates about 1.5 times the
// budget, a third of it instruction slices. A chunk arena grown with
// append allocated about 5.5 times the budget.
func TestWriteChunkedAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b := NewBuilder("enc", 1, 8, 4)
	lanes := make([]memory.VAddr, 32)
	for n := uint64(0); n < 1<<20; n += 32 {
		for i := range lanes {
			lanes[i] = laneAddr(n + uint64(i))
		}
		b.Warp().Load(lanes...).Compute(3)
	}
	tr := b.Build()
	var before, after runtime.MemStats
	var out countingWriter
	out.w = io.Discard
	runtime.ReadMemStats(&before)
	if err := tr.WriteChunked(&out, ChunkOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, budget := float64(after.TotalAlloc-before.TotalAlloc), float64(DefaultChunkBudget)
	t.Logf("encoding %.0f B in %d-B chunks allocated %.0f B, %.2f times the budget", float64(out.n), DefaultChunkBudget, got, got/budget)
	if got > 2*budget {
		t.Errorf("encoding allocated %.0f B, %.2f times the chunk budget (limit 2)", got, got/budget)
	}
}

func buildFuzzSeed(numCUs, warpsPerCU, phases, perPhase int) *Trace {
	b := NewBuilder("fuzz", 1, numCUs, warpsPerCU)
	emitTestTrace(b, phases, perPhase)
	return b.Build()
}
