package core

import (
	"context"
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

// TestIntraInfoReporting checks the partitioned-schedule statistics: window
// geometry from the NoC, live window/crossing/event counts, and the same
// counts for a run with an observer attached as for one without options.
func TestIntraInfoReporting(t *testing.T) {
	tr := intraTestTrace(t, "kmeans")
	cfg := DesignVCOpt()

	sys := MustNew(cfg)
	if _, ok := sys.IntraInfo(); ok {
		t.Error("IntraInfo reported before the first run")
	}
	if _, err := sys.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	info, ok := sys.IntraInfo()
	if !ok {
		t.Fatal("IntraInfo not available after a run")
	}
	if info.Window == 0 || info.Windows == 0 || info.Crossings == 0 || info.Events == 0 {
		t.Errorf("degenerate info: %+v", info)
	}

	// An observer executes the same partitioned schedule.
	observed := MustNew(cfg)
	if _, err := observed.RunContext(context.Background(), tr,
		WithMetricsSnapshot(func(obs.Snapshot) {}), WithProgress(func(Progress) {})); err != nil {
		t.Fatal(err)
	}
	if infoO, ok := observed.IntraInfo(); !ok || infoO != info {
		t.Errorf("run with observers: %+v (ok=%v), want %+v", infoO, ok, info)
	}
}

// TestIntraCancellation checks ctx cancellation is honoured at window
// barriers.
func TestIntraCancellation(t *testing.T) {
	tr := intraTestTrace(t, "kmeans")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := MustNew(DesignVCOpt())
	if _, err := sys.RunContext(ctx, tr); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBackToBackKernelsKeepServiceTime: kernels launched one after another
// on one System each get their full front-end time. Each kernel computes
// for 5,000 cycles after its load, so its service time (the backend
// clock's advance across the run) can never be shorter.
func TestBackToBackKernelsKeepServiceTime(t *testing.T) {
	sys := MustNew(smallCfg(DesignBaseline512()))
	for k := 0; k < 3; k++ {
		b := trace.NewBuilder("kernel", 1, 4, 2)
		b.Warp().Load(0x4000).Compute(5000)
		start := sys.Now()
		if _, err := sys.RunContext(context.Background(), b.Build()); err != nil {
			t.Fatal(err)
		}
		if service := sys.Now() - start; service < 5000 {
			t.Errorf("kernel %d: service %d cycles, want >= 5000", k, service)
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

// TestLaunchAlignsCUClocks: a kernel's front end starts where the System's
// clock stands, not in its past. Per-CU TLB events are stamped with the
// clock at which their CU's partition fires them, so every TLB miss a
// kernel traces must carry a cycle at or after the clock at its launch.
func TestLaunchAlignsCUClocks(t *testing.T) {
	sys := MustNew(smallCfg(DesignBaseline512()))
	var events obs.Buffer
	for k := 0; k < 3; k++ {
		b := trace.NewBuilder("kernel", 1, 4, 2)
		for i := 0; i < 4; i++ { // one warp per CU, each on a fresh page
			b.Warp().Load(memory.VAddr((4*k + i + 1) * memory.PageSize)).Compute(5000)
		}
		start := sys.Now()
		events.Events = events.Events[:0]
		if _, err := sys.RunContext(context.Background(), b.Build(), WithEventTrace(&events)); err != nil {
			t.Fatal(err)
		}
		misses := 0
		for _, e := range events.Events {
			if !strings.HasPrefix(e.Comp, "tlb.cu") {
				continue
			}
			misses++
			if e.Cycle < start {
				t.Errorf("kernel %d: %s %s at cycle %d, before the launch at %d",
					k, e.Comp, e.Name, e.Cycle, start)
			}
		}
		if misses != 4 {
			t.Fatalf("kernel %d: %d per-CU TLB misses traced, want 4", k, misses)
		}
	}
}

// TestEventTraceInCycleOrder: every partition fires on the System's one
// clock, so a run's event trace comes out in cycle order, front-end (per-CU
// TLB) and backend (IOMMU, walker, FBT) events interleaved.
func TestEventTraceInCycleOrder(t *testing.T) {
	for _, name := range []string{"kmeans", "bfs"} {
		tr := intraTestTrace(t, name)
		for _, cfg := range []Config{DesignBaseline512(), DesignVCOpt()} {
			var events obs.Buffer
			if _, err := MustNew(cfg).RunContext(context.Background(), tr, WithEventTrace(&events)); err != nil {
				t.Fatal(err)
			}
			if len(events.Events) == 0 {
				t.Fatalf("%s/%s: no events traced", name, cfg.Name)
			}
			for i := 1; i < len(events.Events); i++ {
				if prev, e := events.Events[i-1], events.Events[i]; e.Cycle < prev.Cycle {
					t.Fatalf("%s/%s: event %d (%s %s) at cycle %d follows cycle %d (%s %s)",
						name, cfg.Name, i, e.Comp, e.Name, e.Cycle, prev.Cycle, prev.Comp, prev.Name)
				}
			}
		}
	}
}
