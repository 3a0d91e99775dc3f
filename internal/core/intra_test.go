package core

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// intraTestTrace builds a small-but-real workload trace.
func intraTestTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	g, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return g.Build(workloads.DefaultParams())
}

// intraRun executes tr on a fresh system with the given worker count,
// returning the results and the final metrics snapshot.
func intraRun(t *testing.T, cfg Config, tr *trace.Trace, workers int) (Results, obs.Snapshot) {
	t.Helper()
	sys := MustNew(cfg)
	var last obs.Snapshot
	res, err := sys.RunContext(context.Background(), tr,
		WithIntraParallelism(workers),
		WithMetricsSnapshot(func(s obs.Snapshot) { last = s }))
	if err != nil {
		t.Fatalf("RunContext(workers=%d): %v", workers, err)
	}
	return res, last
}

// TestIntraDeterministicAcrossWorkers is the differential gate for the
// partitioned engine: real (workload, design) pairs must produce
// byte-identical Results and metrics snapshots at every worker count,
// including designs that exercise all four MMU paths.
func TestIntraDeterministicAcrossWorkers(t *testing.T) {
	pairs := []struct {
		workload string
		cfg      Config
	}{
		{"pagerank", DesignVCOpt()},
		{"kmeans", DesignBaseline512()},
		{"bfs", DesignL1OnlyVC(512)},
		{"hotspot", DesignIdeal()},
	}
	counts := []int{2, 4, runtime.NumCPU()}
	for _, p := range pairs {
		p := p
		t.Run(p.workload+"/"+p.cfg.Name, func(t *testing.T) {
			t.Parallel()
			tr := intraTestTrace(t, p.workload)
			base, baseSnap := intraRun(t, p.cfg, tr, 1)
			if base.Cycles == 0 || base.GPU.Instructions == 0 {
				t.Fatalf("degenerate baseline run: %+v", base)
			}
			for _, n := range counts {
				res, snap := intraRun(t, p.cfg, tr, n)
				if !reflect.DeepEqual(base, res) {
					t.Errorf("workers=%d: Results diverge from serial\nserial: %+v\nparallel: %+v", n, base, res)
				}
				if !reflect.DeepEqual(baseSnap, snap) {
					t.Errorf("workers=%d: final metrics snapshot diverges from serial", n)
				}
			}
		})
	}
}

// TestIntraInfoReporting checks the partition statistics surface: window
// geometry from the NoC, per-config serial fallbacks, and stable
// window/crossing counts across worker counts.
func TestIntraInfoReporting(t *testing.T) {
	tr := intraTestTrace(t, "kmeans")
	cfg := DesignVCOpt()

	sys := MustNew(cfg)
	if _, ok := sys.IntraInfo(); ok {
		t.Error("IntraInfo reported before the first run")
	}
	if _, err := sys.RunContext(context.Background(), tr, WithIntraParallelism(1)); err != nil {
		t.Fatal(err)
	}
	info1, ok := sys.IntraInfo()
	if !ok {
		t.Fatal("IntraInfo not available after a run")
	}
	if info1.Partitions != cfg.GPU.NumCUs+1 {
		t.Errorf("partitions = %d, want %d", info1.Partitions, cfg.GPU.NumCUs+1)
	}
	if info1.Window == 0 || info1.Windows == 0 || info1.Crossings == 0 || info1.Events == 0 {
		t.Errorf("degenerate info: %+v", info1)
	}
	if info1.SerialReason != "" {
		t.Errorf("unexpected serial fallback: %q", info1.SerialReason)
	}

	sys4 := MustNew(cfg)
	if _, err := sys4.RunContext(context.Background(), tr, WithIntraParallelism(4)); err != nil {
		t.Fatal(err)
	}
	info4, _ := sys4.IntraInfo()
	if info4.Windows != info1.Windows || info4.Crossings != info1.Crossings || info4.Events != info1.Events {
		t.Errorf("schedule statistics depend on worker count: %+v vs %+v", info1, info4)
	}

	// A run without options executes the same partitioned schedule.
	plain := MustNew(cfg)
	if _, err := plain.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if infoP, ok := plain.IntraInfo(); !ok || infoP != info1 {
		t.Errorf("run without options: %+v (ok=%v), want %+v", infoP, ok, info1)
	}

	// Probe-residency configurations read shared caches from CU paths and
	// must fall back to one worker while keeping the canonical schedule.
	probed := DesignBaseline512()
	probed.ProbeResidency = true
	ps := MustNew(probed)
	pres, err := ps.RunContext(context.Background(), tr, WithIntraParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	pinfo, _ := ps.IntraInfo()
	if pinfo.SerialReason == "" || pinfo.Workers != 1 {
		t.Errorf("probed config should force one worker: %+v", pinfo)
	}
	ps1 := MustNew(probed)
	pres1, err := ps1.RunContext(context.Background(), tr, WithIntraParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pres, pres1) {
		t.Error("forced-serial schedule differs between requested worker counts")
	}
}

// TestIntraCancellation checks ctx cancellation is honoured at window
// barriers.
func TestIntraCancellation(t *testing.T) {
	tr := intraTestTrace(t, "kmeans")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := MustNew(DesignVCOpt())
	if _, err := sys.RunContext(ctx, tr, WithIntraParallelism(4)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBackToBackKernelsKeepServiceTime: kernels launched one after another
// on one System each get their full front-end time. Each kernel computes
// for 5,000 cycles after its load, so its service time (the backend
// clock's advance across the run) can never be shorter, at any worker
// count.
func TestBackToBackKernelsKeepServiceTime(t *testing.T) {
	for _, workers := range []int{1, 4} {
		sys := MustNew(smallCfg(DesignBaseline512()))
		for k := 0; k < 3; k++ {
			b := trace.NewBuilder("kernel", 1, 4, 2)
			b.Warp().Load(0x4000).Compute(5000)
			start := sys.Engine().Now()
			if _, err := sys.RunContext(context.Background(), b.Build(), WithIntraParallelism(workers)); err != nil {
				t.Fatal(err)
			}
			if service := sys.Engine().Now() - start; service < 5000 {
				t.Errorf("workers=%d kernel %d: service %d cycles, want >= 5000", workers, k, service)
			}
		}
	}
}

// TestRelaunchFiresOnlyNewWarps: a launch steps only its own kernel's
// warps. Identical kernels on one System, with caches and TLBs warm after
// the first, fire the same number of events per launch; re-stepping every
// earlier kernel's retired warps would add one event per old warp.
func TestRelaunchFiresOnlyNewWarps(t *testing.T) {
	sys := MustNew(smallCfg(DesignBaseline512()))
	var fired []uint64
	var prev uint64
	for k := 0; k < 4; k++ {
		b := trace.NewBuilder("kernel", 1, 4, 2)
		for w := 0; w < 8; w++ {
			b.Warp().Load(memory.VAddr(w * memory.LineSize)).Compute(100)
		}
		if _, err := sys.RunContext(context.Background(), b.Build()); err != nil {
			t.Fatal(err)
		}
		info, _ := sys.IntraInfo()
		fired = append(fired, info.Events-prev)
		prev = info.Events
	}
	for k := 2; k < len(fired); k++ {
		if fired[k] != fired[1] {
			t.Fatalf("events per launch %v: warm launches differ", fired)
		}
	}
}

// TestLaunchAlignsCUClocks: no per-CU clock runs behind the backend clock
// when a kernel launches. Per-CU TLB events are stamped with their CU's
// partition clock (which the CU's L1 shares), so every TLB miss a kernel
// traces must carry a cycle at or after the backend clock at its launch.
func TestLaunchAlignsCUClocks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		sys := MustNew(smallCfg(DesignBaseline512()))
		var events obs.Buffer
		for k := 0; k < 3; k++ {
			b := trace.NewBuilder("kernel", 1, 4, 2)
			for i := 0; i < 4; i++ { // one warp per CU, each on a fresh page
				b.Warp().Load(memory.VAddr((4*k + i + 1) * memory.PageSize)).Compute(5000)
			}
			start := sys.Engine().Now()
			events.Events = events.Events[:0]
			if _, err := sys.RunContext(context.Background(), b.Build(),
				WithIntraParallelism(workers), WithEventTrace(&events)); err != nil {
				t.Fatal(err)
			}
			misses := 0
			for _, e := range events.Events {
				if !strings.HasPrefix(e.Comp, "tlb.cu") {
					continue
				}
				misses++
				if e.Cycle < start {
					t.Errorf("workers=%d kernel %d: %s %s at cycle %d, before the launch at %d",
						workers, k, e.Comp, e.Name, e.Cycle, start)
				}
			}
			if misses != 4 {
				t.Fatalf("workers=%d kernel %d: %d per-CU TLB misses traced, want 4", workers, k, misses)
			}
		}
	}
}
