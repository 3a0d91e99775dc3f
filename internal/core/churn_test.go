package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/workloads"
)

// churnLaunch is what one launch of the churn plan left behind.
type churnLaunch struct {
	res    Results
	retire RetireStats
}

// replayChurn runs a small multi-tenant plan on one System: six tenants
// rotate through three ASID slots over twelve launches, so slots roll over
// (RetireASID) on structures still warm from the previous tenant and, on
// designs without ASID tags, every context switch flushes the GPU
// (FlushGPU).
func replayChurn(t *testing.T, cfg Config) []churnLaunch {
	t.Helper()
	outs, err := churnReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// churnReplay is replayChurn without a *testing.T, so that goroutines
// other than the test's may run it.
func churnReplay(cfg Config) ([]churnLaunch, error) {
	outs, _, err := churnReplayCollecting(cfg, func(int) bool { return true })
	return outs, err
}

// churnReplayCollecting replays the plan with RunContext on the launches
// collect selects and Execute on the others, which leave a zero Results,
// and also returns the System's clock at the end.
func churnReplayCollecting(cfg Config, collect func(launch int) bool) ([]churnLaunch, uint64, error) {
	pl, err := churnTestPlan()
	if err != nil {
		return nil, 0, err
	}
	cfg.GPU.NumCUs = pl.Params.NumCUs
	return churnReplayOn(MustNew(cfg), pl, collect)
}

// churnReplayOn is churnReplayCollecting's replay of pl on sys, whose
// configuration has the plan's CU count.
func churnReplayOn(sys *System, pl workloads.ChurnPlan, collect func(launch int) bool) ([]churnLaunch, uint64, error) {
	var err error
	outs := make([]churnLaunch, len(pl.Launches))
	for i, l := range pl.Launches {
		if l.Retire != 0 {
			outs[i].retire = sys.RetireASID(l.Retire)
		}
		tr := pl.KernelTrace(l)
		if collect(i) {
			outs[i].res, err = sys.RunContext(context.Background(), tr)
		} else {
			err = sys.Execute(context.Background(), tr)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("launch %d (asid %d): %v", l.Seq, l.ASID, err)
		}
	}
	return outs, sys.Now(), nil
}

// churnTestPlan builds the plan replayChurn plays.
func churnTestPlan() (workloads.ChurnPlan, error) {
	pl := workloads.BuildChurnPlan(workloads.ChurnParams{
		Tenants: 6, Launches: 12, ASIDSlots: 3,
		KernelPages: 16, SharedPages: 4,
		NumCUs: 4, WarpsPerCU: 2, Seed: 42, ArrivalPeriod: 1,
	}.Normalized())
	if pl.Retires() == 0 {
		return pl, fmt.Errorf("churn plan produced no retirements; grow Tenants or Launches")
	}
	return pl, nil
}

// churnDigest hashes every launch's encoded Results and RetireStats.
func churnDigest(outs []churnLaunch) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(EncodeResults(o.res))
		fmt.Fprintf(h, "%+v\n", o.retire)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// churnTestDesigns are the three designs the churn figure runs, with the
// churnDigest of their replay.
var churnTestDesigns = []struct {
	name   string
	cfg    func() Config
	digest string
}{
	{"vc-opt", DesignVCOpt, "5d64292694e7a28a5c177f99393326ca38b06d2460208b98b46582efcfdb2db9"},
	{"baseline-512", DesignBaseline512, "8c4bf3e72f74e27b2de6c761766d611994081cbe06e22d1dfd87414584341847"},
	{"vc-opt-dsr", DesignVCOptDSR, "a479c0a92e6c1245fc2990013fb12f519511bd80acfa6b69da807d9ffe8a9d68"},
}

// TestChurnDigest pins the churn plan's outcome on the three designs the
// churn figure runs: vc-opt flushes the whole GPU (FlushGPU) on every
// context switch; baseline-512 and vc-opt-dsr retire ASID slots
// (RetireASID). Each design replays the plan on 1 and on 4 Systems at
// once, one goroutine each, as the experiments run pool does: every
// replay must reach the same digest, so Systems share no mutable state.
// The digests were first recorded while every
// bulk invalidation still had a scan-based twin that differential tests
// held byte-identical to the epoch form, so they carry that equivalence
// forward. They carry the SimVersion 4 values into v5: they were
// re-recorded only because the Results layout shrank, after every
// launch's surviving fields were shown equal to v4's. They hold across
// v6 unchanged: v6 moved only the residency probe and the order of
// lifetime observations, and churn records neither. They were
// re-recorded once more when EncodeResults became the canonical JSON
// document, from hashes of json.Marshal's output taken before that
// change, so no result moved. A deliberate schedule change (a SimVersion
// bump) that moves them re-records them.
func TestChurnDigest(t *testing.T) {
	for _, d := range churnTestDesigns {
		d := d
		for _, workers := range []int{1, 4} {
			workers := workers
			t.Run(fmt.Sprintf("%s/workers=%d", d.name, workers), func(t *testing.T) {
				t.Parallel()
				digests := make([]string, workers)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := range digests {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						outs, err := churnReplay(d.cfg())
						digests[w], errs[w] = churnDigest(outs), err
					}(w)
				}
				wg.Wait()
				for w, got := range digests {
					if errs[w] != nil {
						t.Errorf("replay %d: %v", w, errs[w])
					} else if got != d.digest {
						t.Errorf("replay %d: churn digest = %s, want %s", w, got, d.digest)
					}
				}
			})
		}
	}
}

// TestExecuteMatchesRunContext: Execute runs RunContext's path and leaves
// the System in the same state. The churn test plan, replayed with Execute
// and RunContext on every third launch, gives those launches Results
// byte-identical to a RunContext-only replay's, the same RetireStats on
// every rollover, and the same final cycle, on the three churn designs.
func TestExecuteMatchesRunContext(t *testing.T) {
	for _, d := range churnTestDesigns {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			want, wantNow, err := churnReplayCollecting(d.cfg(), func(int) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			third := func(i int) bool { return i%3 == 2 }
			got, gotNow, err := churnReplayCollecting(d.cfg(), third)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].retire != want[i].retire {
					t.Errorf("launch %d: RetireStats %+v after Execute, %+v after RunContext", i, got[i].retire, want[i].retire)
				}
				if !third(i) {
					continue
				}
				if g, w := EncodeResults(got[i].res), EncodeResults(want[i].res); !bytes.Equal(g, w) {
					t.Errorf("launch %d: Results differ after Execute\ngot:  %s\nwant: %s", i, g, w)
				}
			}
			if gotNow != wantNow {
				t.Errorf("replay ends at cycle %d with Execute, %d with RunContext only", gotNow, wantNow)
			}
		})
	}
}

// TestTrackLifetimesOnlyObserves: lifetime tracking hooks observe
// evictions and must not steer the simulation. With Config.TrackLifetimes
// toggled and nothing else, every Results field but Lifetimes is
// byte-identical, on one kernel of every workload and across the churn
// plan's bulk invalidations.
func TestTrackLifetimesOnlyObserves(t *testing.T) {
	encode := func(r Results) []byte {
		r.Lifetimes = nil
		return EncodeResults(r)
	}
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 42}
	for _, g := range workloads.All() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			t.Parallel()
			tr := g.Build(p)
			run := func(track bool) Results {
				cfg := smallCfg(DesignVCOpt())
				cfg.TrackLifetimes = track
				return MustRun(cfg, tr)
			}
			on, off := run(true), run(false)
			if on.Lifetimes == nil || on.Lifetimes.L1Data.N() == 0 {
				t.Fatal("no L1 lifetimes recorded")
			}
			if !bytes.Equal(encode(on), encode(off)) {
				t.Errorf("Results differ with lifetime tracking on\non:  %s\noff: %s", encode(on), encode(off))
			}
		})
	}
	for _, d := range churnTestDesigns {
		d := d
		t.Run("churn/"+d.name, func(t *testing.T) {
			t.Parallel()
			tracked := d.cfg()
			tracked.TrackLifetimes = true
			on, off := replayChurn(t, tracked), replayChurn(t, d.cfg())
			for i := range on {
				if on[i].retire != off[i].retire {
					t.Errorf("launch %d: RetireStats %+v with lifetimes, %+v without", i, on[i].retire, off[i].retire)
				}
				if !bytes.Equal(encode(on[i].res), encode(off[i].res)) {
					t.Errorf("launch %d: Results differ with lifetime tracking on", i)
				}
			}
		})
	}
}

// TestRolloverAllocatesNothing pins an ASID-slot rollover at zero host
// allocations once every slot is warm: RetireASID recycles the released
// address space (tables, frame references and Release's key slice keep
// their capacity) and SpaceFor reuses it. A round is the churn replay's
// rollover: retire the slot, take its fresh space, map the shared churn
// pages into it and demand-map a kernel's private pages.
func TestRolloverAllocatesNothing(t *testing.T) {
	const (
		slots   = 4
		shared  = 8  // workloads.DefaultChurnParams().SharedPages
		private = 32 // workloads.DefaultChurnParams().KernelPages
	)
	for _, d := range []struct {
		name string
		cfg  func() Config
	}{{"baseline-512", DesignBaseline512}, {"vc-opt", DesignVCOpt}, {"vc-opt-dsr", DesignVCOptDSR}} {
		t.Run(d.name, func(t *testing.T) {
			sys := MustNew(smallCfg(d.cfg()))
			frames := make([]memory.PPN, shared)
			for i := range frames {
				frames[i] = sys.Frames().Alloc()
			}
			n := 0
			round := func() {
				asid := memory.ASID(1 + n%slots)
				n++
				sys.RetireASID(asid)
				sp := sys.SpaceFor(asid)
				for i, ppn := range frames {
					sp.MapFrame(workloads.ChurnSharedBase+memory.VAddr(i)*memory.PageSize, ppn, memory.PermRead)
				}
				for i := 0; i < private; i++ {
					sp.EnsureMapped(memory.VAddr(0x10000000 + i*memory.PageSize))
				}
			}
			for i := 0; i < 3*slots; i++ {
				round()
			}
			if got := testing.AllocsPerRun(4*slots, round); got != 0 {
				t.Errorf("a warm rollover allocates %v times, want 0", got)
			}
		})
	}
}
