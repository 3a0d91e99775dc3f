package main

import (
	"math"
	"testing"
)

// cannedTraces is `go tool pprof -traces -sample_index=samples` output in
// the toolchain's layout, cut down to one stack per folding rule.
const cannedTraces = `File: vcbench
Build ID: 0123456789abcdef
Type: samples
Time: 2026-10-16 02:04:30 UTC
Duration: 15.20s, Total samples = 100
-----------+-------------------------------------------------------
        40   vcache/internal/tlb.(*TLB).Lookup
             vcache/internal/core.(*System).translatePerCU
             vcache/internal/sim.(*Engine).Step
             main.runSimulation
-----------+-------------------------------------------------------
        20   runtime.memclrNoHeapPointers
             runtime.mallocgc
             runtime.newobject
             vcache/internal/core.(*System).physCacheAccess
-----------+-------------------------------------------------------
        15   runtime.memmove
             runtime.growslice
             vcache/internal/cache.(*Cache).Access (inline)
             vcache/internal/core.(*System).physCacheAccess.func1
-----------+-------------------------------------------------------
      kind:  worker
        10   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
         6   syscall.Syscall
             internal/poll.(*FD).Write
             net.(*conn).Write
             net/http.(*persistConn).writeLoop
-----------+-------------------------------------------------------
         4   encoding/json.(*decodeState).object
             encoding/json.Unmarshal
             vcache/api/v1.(*Client).submit
-----------+-------------------------------------------------------
         3   vcache/internal/report.(*Table).Render
             main.main
-----------+-------------------------------------------------------
         2   runtime.futex
             runtime.notesleep
             runtime.mPark
-----------+-------------------------------------------------------
`

func TestFoldTracesChargesInnermostLayer(t *testing.T) {
	shares, total, err := foldTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("total = %g samples, want 100", total)
	}
	want := map[string]float64{
		"tlb":        0.40, // a package's own frame
		"runtime.gc": 0.30, // allocation under core, and a GC worker
		"cache":      0.15, // runtime helpers count as their caller's
		"net.http":   0.10, // HTTP and JSON, even when called from api/v1
		"other":      0.05, // an unlisted repository package, the scheduler
	}
	for layer, w := range want {
		if math.Abs(shares[layer]-w) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", layer, shares[layer], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v, want exactly the layers %v", shares, want)
	}
}

func TestFoldTracesEmptyProfile(t *testing.T) {
	shares, total, err := foldTraces("File: vcbench\nType: samples\n")
	if err != nil || total != 0 || len(shares) != 0 {
		t.Fatalf("foldTraces(no samples) = %v, %g, %v; want no shares", shares, total, err)
	}
}
