package workloads

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"

	"vcache/internal/trace"
)

// TestBuildChunkedMatchesBuild streams every generator through the v4
// chunk writer, materializes the cursor, and demands it equal the
// directly built trace — the invariant the streaming front end relies on
// for byte-identical simulation results.
func TestBuildChunkedMatchesBuild(t *testing.T) {
	p := smallParams()
	for _, g := range All() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			t.Parallel()
			want := g.Build(p)

			var buf bytes.Buffer
			// Small budget so every workload exercises multi-chunk streaming.
			sum, err := g.BuildChunked(p, &buf, trace.ChunkOptions{Budget: 1 << 12})
			if err != nil {
				t.Fatalf("BuildChunked: %v", err)
			}
			if wantSum := want.Summarize(); sum != wantSum {
				t.Fatalf("streamed summary %+v\nwant %+v", sum, wantSum)
			}

			c, err := trace.NewCursor(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("NewCursor: %v", err)
			}
			defer c.Close()
			got, err := c.Materialize()
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: materialized streamed trace differs from direct build", g.Name)
			}
		})
	}
}

// TestBuildChunkedPremapMatchesFirstTouch checks the cursor's premap list
// reproduces the materialized trace's page first-touch order, which pins
// physical frame assignment and therefore simulation results.
func TestBuildChunkedPremapMatchesFirstTouch(t *testing.T) {
	p := smallParams()
	for _, name := range []string{"pagerank", "fw", "nw"} {
		g, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%s) failed", name)
		}
		var buf bytes.Buffer
		if _, err := g.BuildChunked(p, &buf, trace.ChunkOptions{Budget: 1 << 12}); err != nil {
			t.Fatalf("BuildChunked: %v", err)
		}
		c, err := trace.NewCursor(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("NewCursor: %v", err)
		}
		tr := g.Build(p)
		want := tr.FirstTouchVPNs()
		got := c.Premap()
		if len(got) != len(want) {
			t.Fatalf("%s: premap has %d pages, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: premap[%d] = %#x, want %#x", name, i, got[i], want[i])
			}
		}
		c.Close()
	}
}

// TestWriteChunkedAllocatesLessThanStream pins the cost of storing a
// built trace, which every cold daemon job pays: chunks are encoded
// straight from the trace, so writing one allocates less than the stream
// it produces.
func TestWriteChunkedAllocatesLessThanStream(t *testing.T) {
	g, _ := ByName("hotspot")
	tr := g.Build(Params{Scale: 1, NumCUs: 8, WarpsPerCU: 4})
	var stream countingDiscard
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tr.WriteChunked(&stream, trace.ChunkOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes for a %d-byte stream", allocated, stream.n)
	if allocated >= stream.n {
		t.Fatalf("writing a %d-byte stream allocated %d bytes", stream.n, allocated)
	}
}

// countingDiscard is io.Discard that counts what it drops.
type countingDiscard struct{ n uint64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	return io.Discard.Write(p)
}
