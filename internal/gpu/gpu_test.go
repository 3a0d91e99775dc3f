package gpu

import (
	"slices"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/sim"
	"vcache/internal/trace"
)

// recordingPath is a MemoryPath that records requests and answers after a
// fixed latency.
type recordingPath struct {
	eng     *sim.Engine
	latency uint64
	reqs    []req
}

type req struct {
	cu    int
	addr  memory.VAddr
	write bool
	at    uint64
}

func (p *recordingPath) Access(cu int, addr memory.VAddr, write bool, done func()) {
	p.reqs = append(p.reqs, req{cu, addr, write, p.eng.Now()})
	p.eng.Schedule(p.latency, done)
}

// direct is a Fabric that delivers coordination messages immediately.
type direct struct{}

func (direct) ToCoord(_ int, h sim.Handler, arg uint64) { h.Handle(arg) }
func (direct) ToCU(_ int, h sim.Handler, arg uint64)    { h.Handle(arg) }

func run(t *testing.T, tr *trace.Trace, cfg Config, latency uint64) (*sim.Engine, *GPU, *recordingPath) {
	t.Helper()
	eng := sim.New()
	p := &recordingPath{eng: eng, latency: latency}
	g := New(cfg, eng, p, direct{})
	completed := false
	g.Launch(tr, func() { completed = true })
	eng.Run()
	if !completed {
		t.Fatal("GPU never completed")
	}
	return eng, g, p
}

func TestCoalescedIssue(t *testing.T) {
	b := trace.NewBuilder("t", 1, 1, 1)
	// 4 lanes in one line + 1 lane in another: coalesces to 2 requests.
	b.Warp().Load(0x100, 0x110, 0x120, 0x180)
	_, g, p := run(t, b.Build(), DefaultConfig(), 10)
	if len(p.reqs) != 2 {
		t.Fatalf("requests = %d, want 2", len(p.reqs))
	}
	if p.reqs[0].addr != 0x100 || p.reqs[1].addr != 0x180 {
		t.Fatalf("requests = %+v", p.reqs)
	}
	if g.Stats().CoalescedReqs != 2 || g.Stats().LaneAccesses != 4 {
		t.Fatalf("stats = %+v", g.Stats())
	}
}

func TestIssueBandwidthSerializes(t *testing.T) {
	b := trace.NewBuilder("t", 1, 1, 1)
	addrs := make([]memory.VAddr, 4)
	for i := range addrs {
		addrs[i] = memory.VAddr(i * memory.LineSize)
	}
	b.Warp().Load(addrs...)
	cfg := DefaultConfig()
	cfg.IssuePerCycle = 1
	_, _, p := run(t, b.Build(), cfg, 0)
	for i, r := range p.reqs {
		if r.at != uint64(i) {
			t.Fatalf("request %d issued at %d, want %d", i, r.at, i)
		}
	}
}

func TestLoadBlocksUntilAllResponses(t *testing.T) {
	b := trace.NewBuilder("t", 1, 1, 1)
	b.Warp().Load(0x0, 0x80).Compute(1)
	eng, _, _ := run(t, b.Build(), DefaultConfig(), 100)
	// Load issues at 0 and 1; responses at 100 and 101; compute from 101
	// to 102.
	if eng.Now() != 102 {
		t.Fatalf("end = %d, want 102", eng.Now())
	}
}

func TestStoreNonBlocking(t *testing.T) {
	b := trace.NewBuilder("t", 1, 1, 1)
	b.Warp().Store(0x0).Compute(1)
	eng, _, _ := run(t, b.Build(), DefaultConfig(), 1000)
	// Store issues at 0, warp advances at 1, compute ends at 2 — but the
	// engine still drains the store response at 1000.
	if eng.Now() != 1000 {
		t.Fatalf("end = %d", eng.Now())
	}
	cfg := DefaultConfig()
	cfg.BlockOnStore = true
	eng2, _, _ := run(t, b.Build(), cfg, 1000)
	if eng2.Now() != 1001 {
		t.Fatalf("blocking store end = %d, want 1001", eng2.Now())
	}
}

func TestScratchpadBypassesMemory(t *testing.T) {
	b := trace.NewBuilder("t", 1, 1, 1)
	b.Warp().ScratchLoad(0).ScratchStore(6)
	eng, g, p := run(t, b.Build(), DefaultConfig(), 10)
	if len(p.reqs) != 0 {
		t.Fatal("scratch ops reached the memory path")
	}
	// Default scratch latency 4 + explicit 6.
	if eng.Now() != 10 {
		t.Fatalf("end = %d, want 10", eng.Now())
	}
	if g.Stats().ScratchOps != 2 {
		t.Fatalf("stats = %+v", g.Stats())
	}
}

func TestWarpsOverlapLatency(t *testing.T) {
	// Two warps in one CU, each loading one line: memory latency overlaps,
	// so total runtime is ~latency, not 2x latency.
	b := trace.NewBuilder("t", 1, 1, 2)
	b.Warp().Load(0x0)
	b.Warp().Load(0x1000)
	eng, _, _ := run(t, b.Build(), DefaultConfig(), 200)
	if eng.Now() > 210 {
		t.Fatalf("end = %d; warps did not overlap", eng.Now())
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	b := trace.NewBuilder("t", 1, 2, 1) // 2 CUs, 1 warp each
	b.Warp().Load(0x0)                  // CU0: slow (memory latency)
	b.Warp().Compute(1)                 // CU1: fast
	b.Barrier()
	b.Warp().Compute(1)
	b.Warp().Compute(1)
	eng, g, _ := run(t, b.Build(), DefaultConfig(), 500)
	// CU1 reaches the barrier at ~1 but must wait for CU0's load (~500).
	if eng.Now() < 500 {
		t.Fatalf("end = %d; barrier did not hold", eng.Now())
	}
	if g.Stats().Barriers != 2 {
		t.Fatalf("barriers executed = %d, want 2", g.Stats().Barriers)
	}
}

func TestFinishedWarpDoesNotBlockBarrier(t *testing.T) {
	b := trace.NewBuilder("t", 1, 1, 2) // one CU, two warp contexts
	w1 := b.Warp()
	w2 := b.Warp()
	w1.Compute(1) // finishes before w2 reaches its barrier
	w2.Compute(5)
	// Hand-append a barrier only to w2's stream.
	tr := b.Build()
	tr.CUs[0].Warps[1] = append(tr.CUs[0].Warps[1], trace.Inst{Kind: trace.Barrier}, trace.Inst{Kind: trace.Compute, Cycles: 1})
	eng := sim.New()
	p := &recordingPath{eng: eng}
	g := New(DefaultConfig(), eng, p, direct{})
	completed := false
	g.Launch(tr, func() { completed = true })
	eng.Run()
	if !completed {
		t.Fatal("deadlock: finished warp blocked barrier")
	}
}

func TestEmptyTraceCompletes(t *testing.T) {
	b := trace.NewBuilder("t", 1, 2, 2)
	eng := sim.New()
	g := New(DefaultConfig(), eng, &recordingPath{eng: eng}, direct{})
	completed := false
	g.Launch(b.Build(), func() { completed = true })
	eng.Run()
	if !completed {
		t.Fatal("empty trace did not complete")
	}
	if g.LiveWarps() != 0 {
		t.Fatal("live warps after empty trace")
	}
}

func TestMultiCUDistribution(t *testing.T) {
	b := trace.NewBuilder("t", 1, 4, 1)
	for i := 0; i < 4; i++ {
		b.Warp().Load(memory.VAddr(i * memory.PageSize))
	}
	_, _, p := run(t, b.Build(), DefaultConfig(), 10)
	cus := make(map[int]bool)
	for _, r := range p.reqs {
		cus[r.cu] = true
	}
	if len(cus) != 4 {
		t.Fatalf("requests came from %d CUs, want 4", len(cus))
	}
}

// boundWarps returns the warp contexts the GPU has bound, CU by CU.
func boundWarps(g *GPU) []*warp {
	var ws []*warp
	for _, c := range g.cus {
		ws = append(ws, c.warps...)
	}
	return ws
}

// TestRelaunchRecyclesWarps: a launch binds the previous kernel's retired
// warp contexts instead of allocating, a recycled warp starts clean even
// when a store of the previous kernel completes after it is rebound, and a
// warp a stopped run left unretired is never rebound.
func TestRelaunchRecyclesWarps(t *testing.T) {
	t.Run("warm relaunch allocates no warp", func(t *testing.T) {
		b := trace.NewBuilder("k", 1, 2, 2)
		for i := 0; i < 4; i++ {
			b.Warp().Load(memory.VAddr(i*memory.PageSize), memory.VAddr(i*memory.PageSize+memory.LineSize)).
				Store(memory.VAddr(i * memory.PageSize)).Compute(3)
		}
		tr := b.Build()
		eng := sim.New()
		p := &recordingPath{eng: eng, latency: 20}
		g := New(DefaultConfig(), eng, p, direct{})
		completed := false
		done := func() { completed = true }
		relaunch := func() {
			p.reqs, completed = p.reqs[:0], false
			g.Launch(tr, done)
			eng.Run()
		}
		relaunch()
		first := boundWarps(g)
		if got := testing.AllocsPerRun(10, relaunch); got != 0 {
			t.Errorf("a warm relaunch allocates %v times, want 0", got)
		}
		if !completed || len(p.reqs) != 12 {
			t.Fatalf("relaunch completed=%v with %d requests, want true and 12", completed, len(p.reqs))
		}
		again := boundWarps(g)
		for _, w := range first {
			if !slices.Contains(again, w) {
				t.Fatal("a relaunch bound a new warp context in place of a retired one")
			}
		}
	})

	t.Run("late store completion", func(t *testing.T) {
		const latency = 100
		// The first kernel's only warp stores and retires at cycle 1; the
		// store completes at cycle 100, while the second kernel, bound to
		// the recycled warp, waits on a two-line load.
		sb := trace.NewBuilder("store", 1, 1, 1)
		sb.Warp().Store(0x0)
		lb := trace.NewBuilder("load", 1, 1, 1)
		lb.Warp().Load(0x1000, 0x1080).Compute(1)
		load := lb.Build()

		freshEng, _, fresh := run(t, load, DefaultConfig(), latency)
		freshEnd := freshEng.Now()

		eng := sim.New()
		p := &recordingPath{eng: eng, latency: latency}
		g := New(DefaultConfig(), eng, p, direct{})
		stored := false
		g.Launch(sb.Build(), func() { stored = true })
		for !stored && eng.Step() {
		}
		if !stored || eng.Pending() == 0 {
			t.Fatalf("store kernel completed=%v with %d events pending, want its store still in flight", stored, eng.Pending())
		}
		retired := boundWarps(g)[0]
		start := eng.Now()
		var end uint64
		g.Launch(load, func() { end = eng.Now() })
		if boundWarps(g)[0] != retired {
			t.Fatal("the second kernel did not reuse the retired warp")
		}
		eng.Run()
		if end-start != freshEnd {
			t.Errorf("second kernel took %d cycles on a recycled warp, %d on a fresh GPU", end-start, freshEnd)
		}
		got := p.reqs[1:]
		if len(got) != len(fresh.reqs) {
			t.Fatalf("second kernel issued %d requests, %d on a fresh GPU", len(got), len(fresh.reqs))
		}
		for i, r := range got {
			want := fresh.reqs[i]
			want.at += start
			if r != want {
				t.Errorf("request %d: %+v, want %+v", i, r, want)
			}
		}
	})

	t.Run("unretired warp not recycled", func(t *testing.T) {
		// Two warps: one retires at once, the other waits on a load the
		// run is stopped before.
		b := trace.NewBuilder("k", 1, 1, 2)
		b.Warp().Compute(1)
		b.Warp().Load(0x0).Compute(1)
		tr := b.Build()
		eng := sim.New()
		p := &recordingPath{eng: eng, latency: 1000}
		g := New(DefaultConfig(), eng, p, direct{})
		g.Launch(tr, func() { t.Error("the stopped kernel completed") })
		eng.RunUntil(10)
		old := boundWarps(g)
		var retired, live *warp
		for _, w := range old {
			if w.done {
				retired = w
			} else {
				live = w
			}
		}
		if retired == nil || live == nil {
			t.Fatalf("stopped run left warps done=%v/%v, want one retired and one live", old[0].done, old[1].done)
		}
		g.Launch(tr, func() {})
		now := boundWarps(g)
		if !slices.Contains(now, retired) {
			t.Error("the retired warp was not recycled")
		}
		if slices.Contains(now, live) || slices.Contains(g.spare, live) {
			t.Error("the unretired warp was recycled")
		}
		if live.pending != 1 || live.stream == nil {
			t.Errorf("the unretired warp was reset: pending %d, stream %v", live.pending, live.stream)
		}
	})
}
