package artifact

import (
	"io"
	"os"
	"reflect"
	"testing"

	"vcache/internal/trace"
	"vcache/internal/workloads"
)

func TestChunkedTraceRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := TraceKey("t", workloads.Params{})
	if _, ok := c.ChunkedTracePath(key); ok {
		t.Fatal("hit on empty cache")
	}
	tr := testTrace()
	path, ok := c.PutChunkedTrace(key, func(w io.Writer) error {
		return tr.WriteChunked(w, trace.ChunkOptions{})
	})
	if !ok {
		t.Fatal("PutChunkedTrace failed")
	}
	got, ok := c.ChunkedTracePath(key)
	if !ok || got != path {
		t.Fatalf("ChunkedTracePath = %q, %v; want %q, true", got, ok, path)
	}
	cur, err := trace.OpenCursorFile(got)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	mat, err := cur.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, mat) {
		t.Fatal("cached chunked stream does not materialize to the original trace")
	}
	st := c.Stats()
	if st.TraceHits != 1 || st.TraceMisses != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss", st)
	}
}

// TestGetTraceReturnsEveryGeneratorExactly: whatever a generator builds,
// stored with WriteChunked, comes back from the cache reflect.DeepEqual,
// arena order included.
func TestGetTraceReturnsEveryGeneratorExactly(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 7}
	for _, g := range workloads.All() {
		key := TraceKey(g.Name, p)
		want := g.Build(p)
		if _, ok := c.PutChunkedTrace(key, func(w io.Writer) error {
			return want.WriteChunked(w, trace.ChunkOptions{})
		}); !ok {
			t.Fatalf("%s: PutChunkedTrace failed", g.Name)
		}
		path, ok := c.ChunkedTracePath(key)
		if !ok {
			t.Fatalf("%s: miss after put", g.Name)
		}
		got, err := trace.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !reflect.DeepEqual(g.Build(p), got) {
			t.Errorf("%s: cached trace differs from the built one", g.Name)
		}
	}
}

func TestChunkedTraceCorruptEntryMisses(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := TraceKey("t", workloads.Params{})
	tr := testTrace()
	path, ok := c.PutChunkedTrace(key, func(w io.Writer) error {
		return tr.WriteChunked(w, trace.ChunkOptions{})
	})
	if !ok {
		t.Fatal("PutChunkedTrace failed")
	}
	// Truncate the file: the structural scan at open must reject it.
	if err := os.Truncate(path, 24); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.ChunkedTracePath(key); ok {
		t.Fatal("hit on truncated entry")
	}
	if st := c.Stats(); st.Corrupt != 1 || st.TraceMisses != 1 {
		t.Fatalf("stats = %+v; want 1 corrupt miss", st)
	}
}

func TestTraceKeyIgnoresBudget(t *testing.T) {
	// Chunk geometry is a storage detail: the key depends only on workload
	// identity, params and format/generator versions.
	a := TraceKey("t", workloads.Params{Scale: 2})
	b := TraceKey("t", workloads.Params{Scale: 2})
	if a != b {
		t.Fatal("key not deterministic")
	}
	if a == TraceKey("t", workloads.Params{Scale: 3}) {
		t.Fatal("key ignores params")
	}
	if a == TraceKey("u", workloads.Params{Scale: 2}) {
		t.Fatal("key ignores workload name")
	}
}

func TestChunkedTraceNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.ChunkedTracePath(Fingerprint{}); ok {
		t.Fatal("nil cache hit")
	}
	if _, ok := c.PutChunkedTrace(Fingerprint{}, func(io.Writer) error { return nil }); ok {
		t.Fatal("nil cache put succeeded")
	}
}
