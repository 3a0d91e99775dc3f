package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vcache/internal/core"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

func testTrace() *trace.Trace {
	b := trace.NewBuilder("t", 3, 2, 2)
	b.Warp().Load(0x1000, 0x2000).Compute(5)
	b.Warp().Store(0x3000)
	return b.Build()
}

func testResults() core.Results {
	return core.Results{Workload: "t", Design: "d", Cycles: 123,
		IOMMUSamples: []float64{1, 2.5}}
}

func TestResultsRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey(TraceKey("t", workloads.Params{}), core.DesignBaseline512())
	if _, ok := c.GetResults(key); ok {
		t.Fatal("hit on empty cache")
	}
	if c.HasResult(key) {
		t.Fatal("HasResult true on empty cache")
	}
	res := testResults()
	c.PutResults(key, res)
	if !c.HasResult(key) {
		t.Fatal("HasResult false after put")
	}
	got, ok := c.GetResults(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatal("cache changed the results")
	}
	// The stored document comes back as written: the bytes a daemon
	// serves from a cache hit.
	if got, doc, ok := c.GetResultsDoc(key); !ok || !reflect.DeepEqual(res, got) || !bytes.Equal(doc, core.EncodeResults(res)) {
		t.Fatalf("GetResultsDoc = ok %v, document %q; want the results and their canonical document", ok, doc)
	}
}

// TestCorruptEntriesRecompute is the fallback guarantee: flip any byte of a
// stored entry (envelope or payload) or truncate it, and Get treats it as a
// miss — never an error, never bad data.
func TestCorruptEntriesRecompute(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey(TraceKey("t", workloads.Params{}), core.DesignIdeal())
	c.PutResults(key, testResults())
	path := filepath.Join(dir, "result", key.String())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := range orig {
		bad := append([]byte(nil), orig...)
		bad[i] ^= 0xff
		if err := os.WriteFile(path, bad, 0o666); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetResults(key); ok {
			t.Fatalf("corrupted byte %d accepted", i)
		}
	}
	if err := os.WriteFile(path, orig[:len(orig)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetResults(key); ok {
		t.Fatal("truncated entry accepted")
	}
	if c.Stats().Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
	// An intact envelope around a payload that does not decode is a miss
	// too, and corrupt.
	corrupt := c.Stats().Corrupt
	c.PutResultsDoc(key, []byte("{not json\n"))
	if _, doc, ok := c.GetResultsDoc(key); ok || doc != nil {
		t.Fatalf("an undecodable payload was a hit (document %q)", doc)
	}
	if c.Stats().Corrupt != corrupt+1 {
		t.Fatal("an undecodable payload was not counted as corrupt")
	}

	// Recompute-and-overwrite restores the entry.
	c.PutResults(key, testResults())
	if _, ok := c.GetResults(key); !ok {
		t.Fatal("overwritten entry missed")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := TraceKey("bfs", workloads.Params{Scale: 1, NumCUs: 16, WarpsPerCU: 8, Seed: 42})
	if TraceKey("bfs", workloads.Params{}) != base {
		t.Fatal("key not derived from normalized params (zero params are the defaults)")
	}
	if TraceKey("lud", workloads.Params{}) == base {
		t.Fatal("workload name not in key")
	}
	if TraceKey("bfs", workloads.Params{Scale: 2}) == base {
		t.Fatal("params not in key")
	}

	cfg := core.DesignBaseline512()
	rBase := ResultKey(base, cfg)
	cfg2 := cfg
	cfg2.PerCUTLB.Entries++
	if ResultKey(base, cfg2) == rBase {
		t.Fatal("config not in result key")
	}
	other := TraceKey("bfs", workloads.Params{Scale: 2})
	if ResultKey(other, cfg) == rBase {
		t.Fatal("trace key not in result key")
	}
}

// A nil cache is the -no-cache mode: every operation is a quiet no-op.
func TestNilCache(t *testing.T) {
	var c *Cache
	key := TraceKey("t", workloads.Params{})
	if _, ok := c.GetResults(key); ok {
		t.Fatal("nil cache hit")
	}
	c.PutResults(key, testResults())
	if c.HasResult(key) || c.Dir() != "" || c.Stats() != (Stats{}) {
		t.Fatal("nil cache not inert")
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv(EnvDir, "/tmp/somewhere")
	if got := DefaultDir(); got != "/tmp/somewhere" {
		t.Fatalf("DefaultDir with %s set = %q", EnvDir, got)
	}
	t.Setenv(EnvDir, "")
	if got := DefaultDir(); got != filepath.Join("out", "cache") {
		t.Fatalf("DefaultDir = %q", got)
	}
}

// TestSharedDirConcurrency races two independent Cache instances (stand-ins
// for two processes) over one directory: concurrent put/get of the same
// trace stream must stay atomic — a reader sees either a miss or a
// complete, valid entry, never a partial write.
func TestSharedDirConcurrency(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := TraceKey("t", workloads.Params{})
	want := testTrace()

	done := make(chan error, 2)
	for _, c := range []*Cache{a, b} {
		c := c
		go func() {
			for i := 0; i < 50; i++ {
				c.PutChunkedTrace(key, func(w io.Writer) error {
					return want.WriteChunked(w, trace.ChunkOptions{})
				})
				path, ok := c.ChunkedTracePath(key)
				if !ok {
					continue
				}
				got, err := trace.LoadFile(path)
				if err != nil {
					done <- fmt.Errorf("reader observed a partial entry: %w", err)
					return
				}
				if !reflect.DeepEqual(want, got) {
					done <- errors.New("reader observed a different trace")
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats().Corrupt != 0 || b.Stats().Corrupt != 0 {
		t.Fatal("concurrent writes produced a corrupt entry")
	}
}
