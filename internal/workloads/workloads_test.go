package workloads

import (
	"fmt"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

func smallParams() Params {
	return Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 7}
}

func TestCatalogComplete(t *testing.T) {
	// The paper evaluates exactly these 15 workloads.
	want := []string{
		"bc", "color_maxmin", "color_max", "fw", "fw_block", "mis",
		"pagerank", "pagerank_spmv",
		"kmeans", "backprop", "bfs", "hotspot", "lud", "nw", "pathfinder",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d workloads, want %d", len(got), len(want))
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("catalog[%d] = %s, want %s", i, got[i], n)
		}
	}
	if _, ok := ByName("pagerank"); !ok {
		t.Fatal("ByName failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName found nonexistent workload")
	}
}

func TestHighBandwidthSubset(t *testing.T) {
	hb := HighBandwidth()
	names := map[string]bool{}
	for _, g := range hb {
		names[g.Name] = true
	}
	// The paper's low-translation-bandwidth workloads (§5.2).
	for _, low := range []string{"kmeans", "backprop", "hotspot", "nw", "pathfinder"} {
		if names[low] {
			t.Fatalf("%s should not be in the high-bandwidth subset", low)
		}
	}
	for _, high := range []string{"pagerank", "bfs", "fw", "mis", "color_max"} {
		if !names[high] {
			t.Fatalf("%s missing from the high-bandwidth subset", high)
		}
	}
}

func TestAllGeneratorsProduceValidTraces(t *testing.T) {
	p := smallParams()
	for _, g := range All() {
		tr := g.Build(p)
		if tr.Name != g.Name {
			t.Fatalf("%s: trace named %q", g.Name, tr.Name)
		}
		if len(tr.CUs) != p.NumCUs {
			t.Fatalf("%s: %d CUs, want %d", g.Name, len(tr.CUs), p.NumCUs)
		}
		s := tr.Summarize()
		if s.MemInsts == 0 {
			t.Fatalf("%s: no memory instructions", g.Name)
		}
		if s.DistinctPages < 8 {
			t.Fatalf("%s: footprint only %d pages", g.Name, s.DistinctPages)
		}
		// Every lane address must be in the user range (layout base up).
		for _, cu := range tr.CUs {
			for _, w := range cu.Warps {
				for _, in := range w {
					if in.Kind != trace.Load && in.Kind != trace.Store {
						continue
					}
					for _, a := range tr.Addrs(in) {
						if a < 256<<20 {
							t.Fatalf("%s: address %#x below layout base", g.Name, uint64(a))
						}
					}
					if in.Lanes > 32 {
						t.Fatalf("%s: instruction with %d lanes", g.Name, in.Lanes)
					}
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := smallParams()
	for _, g := range All() {
		a, b := g.Build(p).Summarize(), g.Build(p).Summarize()
		if a != b {
			t.Fatalf("%s: non-deterministic trace: %+v vs %+v", g.Name, a, b)
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	g, _ := ByName("pagerank")
	p1, p2 := smallParams(), smallParams()
	p2.Seed = 999
	if g.Build(p1).Summarize() == g.Build(p2).Summarize() {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestScaleGrowsFootprint(t *testing.T) {
	g, _ := ByName("hotspot")
	p1 := smallParams()
	p2 := p1
	p2.Scale = 2
	s1, s2 := g.Build(p1).Summarize(), g.Build(p2).Summarize()
	if s2.DistinctPages <= s1.DistinctPages {
		t.Fatalf("scale 2 footprint %d <= scale 1 footprint %d", s2.DistinctPages, s1.DistinctPages)
	}
}

func TestGraphWorkloadsAreDivergent(t *testing.T) {
	p := smallParams()
	for _, name := range []string{"pagerank", "mis", "color_max", "bfs", "fw"} {
		g, _ := ByName(name)
		s := g.Build(p).Summarize()
		if s.Divergence < 2.0 {
			t.Fatalf("%s: divergence %.2f, expected > 2 (scatter/gather)", name, s.Divergence)
		}
	}
	// Regular workloads coalesce nearly perfectly.
	for _, name := range []string{"hotspot", "backprop", "pathfinder"} {
		g, _ := ByName(name)
		s := g.Build(p).Summarize()
		if s.Divergence > 1.5 {
			t.Fatalf("%s: divergence %.2f, expected ~1 (coalesced)", name, s.Divergence)
		}
	}
}

func TestScratchpadWorkloads(t *testing.T) {
	p := smallParams()
	for _, name := range []string{"nw", "pathfinder", "fw_block", "lud"} {
		g, _ := ByName(name)
		s := g.Build(p).Summarize()
		if s.ScratchOps == 0 {
			t.Fatalf("%s: expected scratchpad use", name)
		}
	}
	// nw and pathfinder are scratch-dominated (the paper's observation).
	for _, name := range []string{"nw", "pathfinder"} {
		g, _ := ByName(name)
		s := g.Build(p).Summarize()
		if s.ScratchOps < s.MemInsts {
			t.Fatalf("%s: scratch ops (%d) < global mem insts (%d)", name, s.ScratchOps, s.MemInsts)
		}
	}
}

func TestIterativeWorkloadsHaveBarriers(t *testing.T) {
	p := smallParams()
	for _, name := range []string{"pagerank", "bfs", "hotspot", "nw", "color_max"} {
		g, _ := ByName(name)
		if g.Build(p).Summarize().Barriers == 0 {
			t.Fatalf("%s: no kernel barriers", name)
		}
	}
}

func TestGenGraphStructure(t *testing.T) {
	r := newRNG(1)
	g := genGraph(r, 1000, 6, 32)
	if g.n != 1000 || len(g.rowPtr) != 1001 {
		t.Fatalf("bad graph dims: n=%d rowPtr=%d", g.n, len(g.rowPtr))
	}
	for v := int32(0); v < g.n; v++ {
		d := g.deg(v)
		if d < 1 || d > 32 {
			t.Fatalf("node %d degree %d out of [1,32]", v, d)
		}
	}
	if int(g.rowPtr[g.n]) != len(g.col) {
		t.Fatal("rowPtr/col inconsistent")
	}
	for _, u := range g.col {
		if u < 0 || u >= g.n {
			t.Fatalf("edge target %d out of range", u)
		}
	}
	nodes := g.nodes()
	total := 0
	for start := 0; start < len(nodes); start += warpLanes {
		c := warpChunk(nodes, start)
		if len(c) > 32 {
			t.Fatal("oversized warp chunk")
		}
		for i, v := range c {
			if v != int32(start+i) {
				t.Fatalf("chunk at %d holds node %d at lane %d", start, v, i)
			}
		}
		total += len(c)
	}
	if total != int(g.n) {
		t.Fatalf("chunks cover %d nodes, want %d", total, g.n)
	}
}

func TestBFSLevelsCoverReachable(t *testing.T) {
	r := newRNG(2)
	g := genGraph(r, 500, 8, 32)
	levels := bfsLevels(g, 0)
	if len(levels) < 2 {
		t.Fatal("BFS found no levels beyond the source")
	}
	seen := map[int32]bool{}
	for _, lv := range levels {
		for _, v := range lv {
			if seen[v] {
				t.Fatalf("node %d in two levels", v)
			}
			seen[v] = true
		}
	}
	if !seen[0] {
		t.Fatal("source missing")
	}
}

func TestLayoutNoOverlap(t *testing.T) {
	l := newLayout()
	a := l.array(1000, 4)
	b := l.array(1000, 4)
	if a%memory.PageSize != 0 || b%memory.PageSize != 0 {
		t.Fatal("arrays not page-aligned")
	}
	if uint64(b) < uint64(a)+4000 {
		t.Fatal("arrays overlap")
	}
	n := l.nodeArray(100)
	if uint64(n) <= uint64(b) {
		t.Fatal("node array overlaps")
	}
	if nodeAddr(n, 2)-nodeAddr(n, 1) != nodeStride {
		t.Fatal("node stride wrong")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(5), newRNG(5)
	for i := 0; i < 100; i++ {
		if a.u64() != b.u64() {
			t.Fatal("rng not deterministic")
		}
	}
	r := newRNG(0) // zero seed must still work
	if r.u64() == 0 && r.u64() == 0 {
		t.Fatal("zero-seed rng stuck")
	}
	for i := 0; i < 1000; i++ {
		if v := a.n(10); v < 0 || v >= 10 {
			t.Fatalf("rng.n out of range: %d", v)
		}
	}
	if a.n(0) != 0 {
		t.Fatal("rng.n(0) != 0")
	}
}

func TestDescribe(t *testing.T) {
	g, _ := ByName("kmeans")
	if DescribeSummary(g, g.Build(smallParams()).Summarize()) == "" {
		t.Fatal("empty description")
	}
}

func TestDefaultParamsNormalization(t *testing.T) {
	var p Params // all zero
	n := p.normalized()
	if n.Scale != 1 || n.NumCUs != 16 || n.WarpsPerCU != 8 || n.Seed == 0 {
		t.Fatalf("normalized zero params = %+v", n)
	}
}

// Sanity: builders respect the CU/warp pool from Params.
func TestTraceUsesConfiguredPool(t *testing.T) {
	p := Params{Scale: 1, NumCUs: 2, WarpsPerCU: 3, Seed: 1}
	g, _ := ByName("kmeans")
	tr := g.Build(p)
	if len(tr.CUs) != 2 {
		t.Fatalf("CUs = %d", len(tr.CUs))
	}
	for _, cu := range tr.CUs {
		if len(cu.Warps) != 3 {
			t.Fatalf("warps per CU = %d", len(cu.Warps))
		}
	}
	var _ trace.Trace = *tr
}

// TestChurnLaunchNames: the names BuildChurnPlan formats once per plan are
// fmt's "churn.t%02d.k%03d" of every launch's tenant and sequence number,
// past the padding widths too, and KernelInto names its trace with them.
func TestChurnLaunchNames(t *testing.T) {
	pl := BuildChurnPlan(ChurnParams{Tenants: 150, Launches: 1200, ASIDSlots: 4})
	for _, l := range pl.Launches {
		if want := fmt.Sprintf("churn.t%02d.k%03d", l.Tenant, l.Seq); l.Name != want {
			t.Fatalf("launch %d: name %q, want %q", l.Seq, l.Name, want)
		}
	}
	l := pl.Launches[len(pl.Launches)-1]
	if tr := pl.KernelTrace(l); tr.Name != l.Name {
		t.Errorf("kernel trace named %q, want %q", tr.Name, l.Name)
	}
}
