package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/obs"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// buildWorkload generates a workload's trace at scale 1.
func buildWorkload(tb testing.TB, name string, cus, warps int, seed uint64) *trace.Trace {
	tb.Helper()
	g, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %q", name)
	}
	return g.Build(workloads.Params{Scale: 1, NumCUs: cus, WarpsPerCU: warps, Seed: seed})
}

// snapshotJSON is the System's metrics registry read at its clock.
func snapshotJSON(sys *System) []byte {
	return sys.Metrics().Snapshot(sys.Now()).AppendJSON(nil)
}

// runCut runs tr on sys; a non-zero cut cancels the run at the first
// window barrier at or past that cycle. It returns the run's encoded
// Results (nil when it failed), its error and the metrics snapshot after
// it.
func runCut(sys *System, tr *trace.Trace, cut uint64) ([]byte, error, []byte) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var opts []Option
	if cut > 0 {
		opts = append(opts, WithMetricsInterval(cut), WithMetricsSnapshot(func(s obs.Snapshot) {
			if s.Cycle >= cut {
				cancel()
			}
		}))
	}
	res, err := sys.RunContext(ctx, tr, opts...)
	var enc []byte
	if err == nil {
		enc = EncodeResults(res)
	}
	return enc, err, snapshotJSON(sys)
}

// errText renders an error for comparison, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// resetCases are the runs TestResetMatchesNew leaves a System in before
// Reset; cfg adjusts the design for the case.
var resetCases = []struct {
	name string
	cfg  func(Config) Config
	a    func(t *testing.T, sys *System)
}{
	{"larger", nil, func(t *testing.T, sys *System) {
		if _, err, _ := runCut(sys, buildWorkload(t, "pathfinder", 4, 2, 7), 0); err != nil {
			t.Fatal(err)
		}
	}},
	{"cancelled", nil, func(t *testing.T, sys *System) {
		tr := buildWorkload(t, "pathfinder", 4, 2, 7)
		if _, err, _ := runCut(sys, tr, 5000); !errors.Is(err, context.Canceled) {
			t.Fatalf("run cut at cycle 5000 = %v, want context.Canceled", err)
		}
		if _, err := sys.RunContext(context.Background(), tr); !errors.Is(err, ErrStopped) {
			t.Fatalf("run after the cancelled one = %v, want ErrStopped", err)
		}
	}},
	{"churn", func(cfg Config) Config {
		cfg.GPU.NumCUs = 4
		return cfg
	}, func(t *testing.T, sys *System) {
		pl, err := churnTestPlan()
		if err != nil {
			t.Fatal(err)
		}
		shared := sys.Frames().Alloc()
		for _, l := range pl.Launches {
			if l.Retire != 0 {
				sys.RetireASID(l.Retire)
			}
			if l.FreshSlot {
				sys.SpaceFor(l.ASID).MapFrame(workloads.ChurnSharedBase, shared, memory.PermRead)
			}
			if err := sys.Execute(context.Background(), pl.KernelTrace(l)); err != nil {
				t.Fatalf("launch %d: %v", l.Seq, err)
			}
		}
	}},
	{"event-trace", nil, func(t *testing.T, sys *System) {
		var buf obs.Buffer
		if _, err := sys.RunContext(context.Background(), buildWorkload(t, "pathfinder", 4, 2, 7), WithEventTrace(&buf)); err != nil {
			t.Fatal(err)
		}
	}},
	{"lifetimes+probe", func(cfg Config) Config {
		cfg.TrackLifetimes, cfg.ProbeResidency = true, true
		return cfg
	}, func(t *testing.T, sys *System) {
		if _, err, _ := runCut(sys, buildWorkload(t, "pathfinder", 4, 2, 7), 0); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestResetMatchesNew: on every design, a System that ran A and was Reset
// reads the metrics of a new System, and then runs B to the Results bytes
// and metrics snapshot a new System gives B, whatever A was: larger than
// B, cancelled mid-run (a stopped System runs again), a churn replay that
// retired ASIDs over several spaces, a run under an event trace, or a run
// that tracked lifetimes and probed residency.
func TestResetMatchesNew(t *testing.T) {
	for _, d := range Designs {
		for _, c := range resetCases {
			d, c := d, c
			t.Run(d.Name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				cfg := d.New()
				if c.cfg != nil {
					cfg = c.cfg(cfg)
				}
				b := buildWorkload(t, "nw", 2, 1, 3)
				fresh := MustNew(cfg)
				newSnap := snapshotJSON(fresh)
				wantRes, wantErr, wantSnap := runCut(fresh, b, 0)
				if wantErr != nil {
					t.Fatal(wantErr)
				}

				sys := MustNew(cfg)
				c.a(t, sys)
				sys.Reset()
				if got := snapshotJSON(sys); !bytes.Equal(got, newSnap) {
					t.Fatalf("metrics after Reset differ from a new System's:\n got %s\nwant %s", got, newSnap)
				}
				gotRes, err, gotSnap := runCut(sys, b, 0)
				if err != nil {
					t.Fatalf("B after Reset: %v", err)
				}
				if !bytes.Equal(gotRes, wantRes) {
					t.Errorf("B's Results after Reset differ from a new System's:\n got %s\nwant %s", gotRes, wantRes)
				}
				if !bytes.Equal(gotSnap, wantSnap) {
					t.Errorf("B's metrics after Reset differ from a new System's:\n got %s\nwant %s", gotSnap, wantSnap)
				}
			})
		}
	}
}

// TestChurnAfterReset: a churn replay on a System that replayed the plan
// once and was Reset, recycling the address spaces the first replay
// retired, reaches TestChurnDigest's digest on the three churn designs.
func TestChurnAfterReset(t *testing.T) {
	pl, err := churnTestPlan()
	if err != nil {
		t.Fatal(err)
	}
	all := func(int) bool { return true }
	for _, d := range churnTestDesigns {
		cfg := d.cfg()
		cfg.GPU.NumCUs = pl.Params.NumCUs
		sys := MustNew(cfg)
		if _, _, err := churnReplayOn(sys, pl, all); err != nil {
			t.Fatal(err)
		}
		sys.Reset()
		outs, _, err := churnReplayOn(sys, pl, all)
		if err != nil {
			t.Fatal(err)
		}
		if got := churnDigest(outs); got != d.digest {
			t.Errorf("%s: churn digest after Reset = %s, want %s", d.name, got, d.digest)
		}
	}
}

// TestResetAllocatesNothing: resetting a warm System, after a completed run
// and after a cancelled one, allocates nothing.
func TestResetAllocatesNothing(t *testing.T) {
	tr := buildWorkload(t, "nw", 2, 1, 3)
	for _, d := range Designs {
		sys := MustNew(d.New())
		for round := 0; round < 4; round++ {
			cut := uint64(0)
			if round%2 == 1 {
				cut = 20000
			}
			runCut(sys, tr, cut)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sys.Reset()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; round > 1 && n != 0 {
				t.Errorf("%s round %d: Reset allocated %d times, want 0", d.Name, round, n)
			}
		}
	}
}

// TestEventTraceEndsWithItsRun: WithEventTrace's sink receives the events
// of its own run only; a later run without the option, with or without a
// Reset between, emits nothing into it.
func TestEventTraceEndsWithItsRun(t *testing.T) {
	tr := buildWorkload(t, "nw", 4, 2, 3)
	for _, cfg := range []Config{DesignBaseline512(), DesignVCOpt()} {
		var buf obs.Buffer
		sys := MustNew(cfg)
		if _, err := sys.RunContext(context.Background(), tr, WithEventTrace(&buf)); err != nil {
			t.Fatal(err)
		}
		n := len(buf.Events)
		if n == 0 {
			t.Fatalf("%s: the traced run emitted no events", cfg.Name)
		}
		if _, err := sys.RunContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		sys.Reset()
		if _, err := sys.RunContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		if extra := len(buf.Events) - n; extra != 0 {
			t.Errorf("%s: %d events reached the sink after its run returned", cfg.Name, extra)
		}
	}
}

// resetWorkloads are the generators FuzzSystemReset draws from, the
// cheapest at scale 1.
var resetWorkloads = []string{"nw", "backprop", "pathfinder", "kmeans", "hotspot"}

// driveSystemReset plays ops (three bytes each) on one System and, in
// lockstep, on a reference: a new System that replays every run since
// the last Reset. Each op runs a workload (its low six bits) at one of
// two shapes (bit 6) with a seed to completion, or cancels it at a
// cycle; an op's top bit first Resets the System and replaces the
// reference with a new one. Every run's error, encoded Results and
// metrics snapshot must agree.
func driveSystemReset(t *testing.T, design byte, ops []byte) {
	cfg := Designs[int(design)%len(Designs)].New()
	sys, ref := MustNew(cfg), MustNew(cfg)
	for n := 0; n+2 < len(ops); n += 3 {
		op, seed, cut := ops[n], ops[n+1], ops[n+2]
		if op&0x80 != 0 {
			sys.Reset()
			ref = MustNew(cfg)
		}
		wl := resetWorkloads[int(op&0x3f)%len(resetWorkloads)]
		cus, warps := 2, 1
		if op&0x40 != 0 {
			cus, warps = 4, 2
		}
		tr := buildWorkload(t, wl, cus, warps, uint64(seed))
		var at uint64
		if cut%4 != 0 {
			at = uint64(cut) * 700
		}
		gotRes, gotErr, gotSnap := runCut(sys, tr, at)
		wantRes, wantErr, wantSnap := runCut(ref, tr, at)
		step := fmt.Sprintf("op %d (%s %dx%d seed %d, cut at %d, reset %v)", n/3, wl, cus, warps, seed, at, op&0x80 != 0)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: error %v, reference %v", step, gotErr, wantErr)
		}
		if !bytes.Equal(gotRes, wantRes) {
			t.Fatalf("%s: Results\n%s\nreference\n%s", step, gotRes, wantRes)
		}
		if !bytes.Equal(gotSnap, wantSnap) {
			t.Fatalf("%s: metrics\n%s\nreference\n%s", step, gotSnap, wantSnap)
		}
	}
}

// FuzzSystemReset drives (design, workload, seed, cancel point) sequences
// on one System, Reset between some runs, against new Systems.
func FuzzSystemReset(f *testing.F) {
	f.Add(byte(1), []byte{0x03, 7, 9, 0x80, 3, 0})
	f.Add(byte(6), []byte{0x40, 1, 0, 0x81, 2, 5, 0x82, 9, 0})
	f.Add(byte(7), []byte{0x43, 4, 2, 0x01, 4, 0, 0xc4, 5, 0})
	f.Add(byte(8), []byte{0x00, 1, 0, 0x00, 2, 0, 0x80, 3, 1})
	f.Fuzz(func(t *testing.T, design byte, ops []byte) {
		if len(ops) > 3*4 {
			ops = ops[:3*4]
		}
		driveSystemReset(t, design, ops)
	})
}
