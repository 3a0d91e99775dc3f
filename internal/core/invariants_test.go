package core

import (
	"context"
	"math/bits"
	"strings"
	"testing"

	"vcache/internal/memory"
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

// TestInvariantsWalkEveryLargePage: CheckInvariants walks every page of a
// 2MB mapping, not only its base page, so a BT bit cleared under a
// resident L2 line on a non-base page is reported.
func TestInvariantsWalkEveryLargePage(t *testing.T) {
	cfg := smallCfg(DesignVCOpt())
	cfg.LargePages = true
	sys := MustNew(cfg)
	sys.Run(divergentTrace("div", 250, 150)) // pages 0..149: one 2MB mapping
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, vpn := range sys.Space().Table.AppendPages(nil) {
		if vpn%memory.PagesPerLarge == 0 {
			continue
		}
		pa, _, _ := sys.Space().Translate(vpn.Base())
		v, ok := sys.fbt.Entry(pa.Page())
		if !ok || v.BitVec == 0 || v.LVPN != vpn {
			continue
		}
		sys.fbt.ClearLine(v.ASID, vpn, bits.TrailingZeros32(v.BitVec))
		if err := sys.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "BT bit") {
			t.Fatalf("cleared a BT bit under a resident L2 line of page %#x; CheckInvariants returned %v", uint64(vpn), err)
		}
		return
	}
	t.Fatal("no resident L2 line on a non-base page of the 2MB mapping")
}
