package core

import (
	"context"
	"testing"

	"vcache/internal/workloads"
)

// TestInvariantsOnWorkloads runs CheckInvariants on real workloads rather
// than hand-built traces: every workload under vc-opt-dsr at 4 CUs x 2
// warps after its run, and the churn plan, on each design the churn figure
// runs, after every ASID rollover and every launch.
func TestInvariantsOnWorkloads(t *testing.T) {
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2, Seed: 42}
	for _, g := range workloads.All() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			t.Parallel()
			sys := MustNew(smallCfg(DesignVCOptDSR()))
			if _, err := sys.RunContext(context.Background(), g.Build(p)); err != nil {
				t.Fatal(err)
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, d := range churnTestDesigns {
		d := d
		t.Run("churn/"+d.name, func(t *testing.T) {
			t.Parallel()
			pl, err := churnTestPlan()
			if err != nil {
				t.Fatal(err)
			}
			cfg := d.cfg()
			cfg.GPU.NumCUs = pl.Params.NumCUs
			sys := MustNew(cfg)
			for _, l := range pl.Launches {
				if l.Retire != 0 {
					sys.RetireASID(l.Retire)
					if err := sys.CheckInvariants(); err != nil {
						t.Fatalf("after launch %d's rollover of asid %d: %v", l.Seq, l.Retire, err)
					}
				}
				if _, err := sys.RunContext(context.Background(), pl.KernelTrace(l)); err != nil {
					t.Fatalf("launch %d (asid %d): %v", l.Seq, l.ASID, err)
				}
				if err := sys.CheckInvariants(); err != nil {
					t.Fatalf("after launch %d (asid %d): %v", l.Seq, l.ASID, err)
				}
			}
		})
	}
}
