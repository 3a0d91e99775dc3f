package ptw

import (
	"testing"

	"vcache/internal/dram"
	"vcache/internal/memory"
	"vcache/internal/sim"
)

func setup(threads int) (*sim.Engine, *memory.PageTable, *Walker, *memory.FrameAlloc) {
	eng := sim.New()
	fa := memory.NewFrameAlloc(0x100)
	pt := memory.NewPageTable(fa)
	mem := dram.New(eng, dram.Config{Latency: 100, LinesPerCycle: 0})
	cfg := DefaultConfig()
	cfg.Threads = threads
	w := New(eng, cfg, pt, mem)
	return eng, pt, w, fa
}

func TestWalkSuccess(t *testing.T) {
	eng, pt, w, _ := setup(16)
	pt.Map(0x42, 0x999, memory.PermRead)
	var got Result
	done := false
	w.Walk(0x42, walkFunc(func(r Result) { got = r; done = true }))
	eng.Run()
	if !done {
		t.Fatal("walk never completed")
	}
	if got.Fault || got.PTE.PPN != 0x999 {
		t.Fatalf("result = %+v", got)
	}
	// First walk: all four levels miss the PWC = 4 memory accesses at 100
	// cycles = 400 cycles.
	if eng.Now() != 400 {
		t.Fatalf("walk latency = %d, want 400", eng.Now())
	}
	s := w.Stats()
	if s.Walks != 1 || s.PWCMisses != 4 || s.PWCHits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPWCAcceleratesSecondWalk(t *testing.T) {
	eng, pt, w, _ := setup(16)
	pt.Map(0x100, 1, memory.PermRead)
	pt.Map(0x101, 2, memory.PermRead) // same upper levels
	var t1, t2 uint64
	w.Walk(0x100, walkFunc(func(Result) {
		t1 = eng.Now()
		w.Walk(0x101, walkFunc(func(Result) { t2 = eng.Now() }))
	}))
	eng.Run()
	first := t1
	second := t2 - t1
	if second >= first {
		t.Fatalf("second walk (%d) not faster than first (%d)", second, first)
	}
	// Second walk: 3 upper-level PWC hits plus the adjacent leaf PTE on
	// the same 64B PWC line (8 PTEs per line) = 4 hits at 2 cycles each.
	if second != 8 {
		t.Fatalf("second walk latency = %d, want 8", second)
	}
	if w.Stats().PWCHits != 4 {
		t.Fatalf("PWC hits = %d, want 4", w.Stats().PWCHits)
	}
}

func TestUncachedLeafConfig(t *testing.T) {
	// With CachedLevels = 3, leaf PTE reads always go to memory.
	eng := sim.New()
	fa := memory.NewFrameAlloc(0x100)
	pt := memory.NewPageTable(fa)
	mem := dram.New(eng, dram.Config{Latency: 100, LinesPerCycle: 0})
	cfg := DefaultConfig()
	cfg.CachedLevels = memory.Levels - 1
	w := New(eng, cfg, pt, mem)
	pt.Map(0x100, 1, memory.PermRead)
	pt.Map(0x101, 2, memory.PermRead)
	var t1, t2 uint64
	w.Walk(0x100, walkFunc(func(Result) {
		t1 = eng.Now()
		w.Walk(0x101, walkFunc(func(Result) { t2 = eng.Now() }))
	}))
	eng.Run()
	// Second walk: 3 PWC hits (2cy) + mandatory leaf DRAM access (100cy).
	if t2-t1 != 106 {
		t.Fatalf("second walk latency = %d, want 106", t2-t1)
	}
}

func TestWalkFault(t *testing.T) {
	eng, _, w, _ := setup(16)
	var got Result
	w.Walk(0xdead, walkFunc(func(r Result) { got = r }))
	eng.Run()
	if !got.Fault {
		t.Fatal("walk of unmapped page did not fault")
	}
	if w.Stats().Faults != 1 {
		t.Fatalf("faults = %d", w.Stats().Faults)
	}
}

func TestThreadPoolLimitsAndQueues(t *testing.T) {
	eng, pt, w, _ := setup(2)
	for i := 0; i < 6; i++ {
		pt.Map(memory.VPN(0x1000+i*0x40000), memory.PPN(i+1), memory.PermRead) // distinct upper levels
	}
	completed := 0
	for i := 0; i < 6; i++ {
		vpn := memory.VPN(0x1000 + i*0x40000)
		w.Walk(vpn, walkFunc(func(r Result) {
			if r.Fault {
				t.Errorf("walk %v faulted", vpn)
			}
			completed++
		}))
	}
	if w.Busy() != 2 || w.QueueLen() != 4 {
		t.Fatalf("busy=%d queued=%d, want 2/4", w.Busy(), w.QueueLen())
	}
	eng.Run()
	if completed != 6 {
		t.Fatalf("completed = %d, want 6", completed)
	}
	s := w.Stats()
	if s.QueuedWalks != 4 || s.QueueDelay == 0 {
		t.Fatalf("queue stats = %+v", s)
	}
	if w.Busy() != 0 || w.QueueLen() != 0 {
		t.Fatal("walker not drained")
	}
}

func TestConcurrencyOverlapsLatency(t *testing.T) {
	// 16 walks on 16 threads should take barely longer than 1 walk (DRAM
	// unlimited bandwidth here).
	eng, pt, w, _ := setup(16)
	for i := 0; i < 16; i++ {
		pt.Map(memory.VPN(i*0x40000+5), memory.PPN(i+1), memory.PermRead)
	}
	n := 0
	for i := 0; i < 16; i++ {
		w.Walk(memory.VPN(i*0x40000+5), walkFunc(func(Result) { n++ }))
	}
	end := eng.Run()
	if n != 16 {
		t.Fatalf("completed %d", n)
	}
	if end != 400 { // all overlap perfectly
		t.Fatalf("16 concurrent walks took %d cycles, want 400", end)
	}
}

// walkFunc adapts a test callback to Client.
type walkFunc func(Result)

func (f walkFunc) Walked(r Result) { f(r) }

// walkCount is a Client that counts completed walks.
type walkCount int

func (n *walkCount) Walked(Result) { *n++ }

// TestWalkZeroAlloc pins steady-state walks at 0 allocs/op: walk threads
// recycle, DRAM reads re-schedule the thread itself, and the wait queue
// reuses its buffer, so walking — queueing included — allocates nothing
// once warm.
func TestWalkZeroAlloc(t *testing.T) {
	eng, pt, w, _ := setup(2)
	var vpns []memory.VPN
	for i := 0; i < 5; i++ {
		vpn := memory.VPN(0x1000 + i*0x40000) // distinct upper levels
		pt.Map(vpn, memory.PPN(i+1), memory.PermRead)
		vpns = append(vpns, vpn)
	}
	var n walkCount
	op := func() {
		for _, vpn := range vpns {
			w.Walk(vpn, &n)
		}
		eng.Run()
	}
	// Warm up, long enough for the clock to lap the engine's calendar and
	// the node pool to reach the peak pending count.
	for i := 0; i < 100; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("steady-state walks allocate %.1f/op, want 0", allocs)
	}
	if s := w.Stats(); n != walkCount(s.Walks) || s.QueuedWalks == 0 {
		t.Fatalf("completed %d of %d walks, %d queued", n, s.Walks, s.QueuedWalks)
	}
}
