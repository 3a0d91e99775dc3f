package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

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
func replayChurn(t *testing.T, cfg Config, workers int) []churnLaunch {
	t.Helper()
	p := workloads.ChurnParams{
		Tenants: 6, Launches: 12, ASIDSlots: 3,
		KernelPages: 16, SharedPages: 4,
		NumCUs: 4, WarpsPerCU: 2, Seed: 42, ArrivalPeriod: 1,
	}.Normalized()
	pl := workloads.BuildChurnPlan(p)
	if pl.Retires() == 0 {
		t.Fatal("churn plan produced no retirements; grow Tenants or Launches")
	}
	cfg.GPU.NumCUs = p.NumCUs
	sys := MustNew(cfg)
	outs := make([]churnLaunch, len(pl.Launches))
	for i, l := range pl.Launches {
		if l.Retire != 0 {
			outs[i].retire = sys.RetireASID(l.Retire)
		}
		res, err := sys.RunContext(context.Background(), pl.KernelTrace(l), WithIntraParallelism(workers))
		if err != nil {
			t.Fatalf("launch %d (asid %d): %v", l.Seq, l.ASID, err)
		}
		outs[i].res = res
	}
	return outs
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
	{"vc-opt", DesignVCOpt, "fafcce3db372e5bbe8622de56db4641769ca34866dfccedb0a06ec0b79c51ebb"},
	{"baseline-512", DesignBaseline512, "4b7f5b2911f3d9a05db4d802dd6b68cd6e051de7e8bed6cbfe4a2547525c60cb"},
	{"vc-opt-dsr", DesignVCOptDSR, "ba4e98e8866216f62c267e2883d52b631e680e4af095d3ea1fd460aa5d7ab2c0"},
}

// TestChurnDigest pins the churn plan's outcome on the three designs the
// churn figure runs, at two worker counts: vc-opt flushes the whole GPU
// (FlushGPU) on every context switch; baseline-512 and vc-opt-dsr retire
// ASID slots (RetireASID). The digests were recorded while every bulk
// invalidation still had a scan-based twin that differential tests held
// byte-identical to the epoch form, so they carry that equivalence
// forward. A deliberate schedule change (a SimVersion bump) re-records
// them.
func TestChurnDigest(t *testing.T) {
	for _, d := range churnTestDesigns {
		d := d
		for _, workers := range []int{1, 4} {
			workers := workers
			t.Run(fmt.Sprintf("%s/workers=%d", d.name, workers), func(t *testing.T) {
				t.Parallel()
				if got := churnDigest(replayChurn(t, d.cfg(), workers)); got != d.digest {
					t.Errorf("churn digest = %s, want %s", got, d.digest)
				}
			})
		}
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
			on, off := replayChurn(t, tracked, 1), replayChurn(t, d.cfg(), 1)
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
