package trace

import (
	"testing"
	"testing/quick"

	"vcache/internal/memory"
)

func TestCoalesceLines(t *testing.T) {
	// 32 lanes all in one line coalesce to 1 request.
	addrs := make([]memory.VAddr, 32)
	for i := range addrs {
		addrs[i] = memory.VAddr(0x1000 + i*4)
	}
	if got := CoalesceLines(addrs); len(got) != 1 || got[0] != 0x1000 {
		t.Fatalf("unit-stride coalesce = %v", got)
	}
	// Fully divergent: one line each.
	for i := range addrs {
		addrs[i] = memory.VAddr(0x1000 + i*memory.LineSize)
	}
	if got := CoalesceLines(addrs); len(got) != 32 {
		t.Fatalf("divergent coalesce = %d lines, want 32", len(got))
	}
	if CoalesceLines(nil) == nil {
		// empty OK; just must not panic
		_ = addrs
	}
}

// Property: coalesced lines are unique and cover every lane address.
func TestCoalesceProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		addrs := make([]memory.VAddr, len(raw))
		for i, r := range raw {
			addrs[i] = memory.VAddr(r)
		}
		lines := CoalesceLines(addrs)
		set := make(map[memory.VAddr]bool)
		for _, l := range lines {
			if set[l] {
				return false // duplicate
			}
			set[l] = true
		}
		for _, a := range addrs {
			if !set[a.Line()] {
				return false // uncovered lane
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRoundRobin(t *testing.T) {
	b := NewBuilder("t", 1, 4, 2)
	for i := 0; i < 8; i++ {
		b.Warp().Load(memory.VAddr(i * memory.PageSize))
	}
	tr := b.Build()
	if len(tr.CUs) != 4 {
		t.Fatalf("CUs = %d", len(tr.CUs))
	}
	// 8 chunks over 4 CUs x 2 warps: every warp context gets exactly one.
	for c, cu := range tr.CUs {
		for w, warp := range cu.Warps {
			if len(warp) != 1 {
				t.Fatalf("cu %d warp %d has %d insts, want 1", c, w, len(warp))
			}
		}
	}
}

func TestBuilderBarrier(t *testing.T) {
	b := NewBuilder("t", 1, 2, 2)
	b.Warp().Load(0x1000)
	b.Barrier()
	b.Warp().Load(0x2000)
	tr := b.Build()
	// Every warp context has a Barrier inst.
	for _, cu := range tr.CUs {
		for _, warp := range cu.Warps {
			found := false
			for _, in := range warp {
				if in.Kind == Barrier {
					found = true
				}
			}
			if !found {
				t.Fatal("warp missing barrier")
			}
		}
	}
	// After barrier, distribution restarts at CU 0 warp 0.
	if got := tr.CUs[0].Warps[0]; got[len(got)-1].Kind != Load {
		t.Fatal("post-barrier chunk not assigned to first warp")
	}
}

func TestEmitterKinds(t *testing.T) {
	b := NewBuilder("t", 1, 1, 1)
	w := b.Warp()
	w.Load(0x100).Store(0x200).Compute(5).ScratchLoad(2).ScratchStore(2)
	w.Load()     // empty: dropped
	w.Compute(0) // zero: dropped
	tr := b.Build()
	warp := tr.CUs[0].Warps[0]
	want := []Kind{Load, Store, Compute, ScratchLoad, ScratchStore}
	if len(warp) != len(want) {
		t.Fatalf("insts = %d, want %d", len(warp), len(want))
	}
	for i, k := range want {
		if warp[i].Kind != k {
			t.Fatalf("inst %d kind = %v, want %v", i, warp[i].Kind, k)
		}
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuilder("sum", 1, 2, 1)
	b.Warp().Load(0x0, 0x80, 0x100, 0x180) // 4 lanes, 4 lines, 1 page
	b.Warp().Store(0x100000, 0x200000)     // 2 lanes, 2 lines, 2 pages
	b.Warp().Compute(10)
	b.Warp().ScratchLoad(1)
	b.Barrier()
	s := b.Build().Summarize()
	if s.MemInsts != 2 || s.LaneAccesses != 6 || s.CoalescedLines != 6 {
		t.Fatalf("summary = %+v", s)
	}
	if s.DistinctPages != 3 {
		t.Fatalf("pages = %d, want 3", s.DistinctPages)
	}
	if s.ComputeInsts != 1 || s.ScratchOps != 1 || s.Barriers != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Divergence != 3.0 {
		t.Fatalf("divergence = %v, want 3", s.Divergence)
	}
	if s.PagesPerInst != 1.5 {
		t.Fatalf("pages per inst = %v, want 1.5", s.PagesPerInst)
	}
}

func TestKindString(t *testing.T) {
	for k := Compute; k <= Barrier; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
}
