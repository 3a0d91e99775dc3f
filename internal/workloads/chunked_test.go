package workloads

import (
	"bytes"
	"reflect"
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
