package core

import (
	"fmt"
	"slices"
	"testing"

	"vcache/internal/memory"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// prepareEveryLane is Prepare without its same-page skip: it maps every
// lane of the trace, in first-touch order.
func prepareEveryLane(s *System, tr *trace.Trace) {
	for _, cu := range tr.CUs {
		for _, w := range cu.Warps {
			for _, in := range w {
				if in.Kind == trace.Load || in.Kind == trace.Store {
					for _, a := range tr.Addrs(in) {
						if s.cfg.LargePages {
							s.as.EnsureMappedLarge(a)
						} else {
							s.as.EnsureMapped(a)
						}
					}
				}
			}
		}
	}
}

// preparedSystem builds a baseline-512 System, installs the synonym alias
// → target through Space() and prepares tr with prepare.
func preparedSystem(t *testing.T, tr *trace.Trace, large bool, alias, target memory.VAddr, prepare func(*System, *trace.Trace)) *System {
	t.Helper()
	cfg := DesignBaseline512()
	cfg.LargePages = large
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Space().MapSynonym(alias, target, memory.PermRead)
	prepare(s, tr)
	return s
}

// TestPrepareMatchesPerLane holds Prepare, which skips a lane on the page
// of the lane before it, to mapping every lane: on every workload, with
// 4KB and 2MB pages and a synonym installed beforehand, the mapped pages,
// the PTE of every mapped or touched page and the allocator's frames in
// use and next frame match.
func TestPrepareMatchesPerLane(t *testing.T) {
	p := workloads.Params{Scale: 1, NumCUs: 4, WarpsPerCU: 2}
	for _, g := range workloads.All() {
		tr := g.Build(p)
		touched := tr.FirstTouchVPNs()
		for _, large := range []bool{false, true} {
			// With 4KB pages the alias is a page the trace touches, so
			// Prepare must leave its synonym in place. A 4KB mapping
			// inside a 2MB region the trace touches would make
			// EnsureMappedLarge panic, so with 2MB pages the synonym
			// lies outside the footprint.
			alias, target := touched[len(touched)/2].Base(), memory.VAddr(0x7f00_0000_0000)
			if large {
				alias = 0x7e00_0000_0000
			}
			name := fmt.Sprintf("%s/large=%v", g.Name, large)
			got := preparedSystem(t, tr, large, alias, target, (*System).Prepare)
			want := preparedSystem(t, tr, large, alias, target, prepareEveryLane)

			gotPages, wantPages := got.Space().Table.AppendPages(nil), want.Space().Table.AppendPages(nil)
			slices.Sort(gotPages)
			slices.Sort(wantPages)
			if !slices.Equal(gotPages, wantPages) {
				t.Fatalf("%s: mapped pages differ: %d mapped, per-lane %d", name, len(gotPages), len(wantPages))
			}
			if ga, wa := got.Frames().String(), want.Frames().String(); ga != wa {
				t.Fatalf("%s: allocator %s, per-lane %s", name, ga, wa)
			}
			pages := append([]memory.VPN{alias.Page()}, touched...)
			for _, vpn := range append(pages, wantPages...) {
				gp, gok := got.Space().Table.Lookup(vpn)
				wp, wok := want.Space().Table.Lookup(vpn)
				if gp != wp || gok != wok {
					t.Fatalf("%s: page %#x maps to %+v %v, per-lane %+v %v", name, uint64(vpn), gp, gok, wp, wok)
				}
			}
			if pte, ok := got.Space().Table.Lookup(alias.Page()); !ok || pte.Perm != memory.PermRead {
				t.Fatalf("%s: synonym page %#x maps to %+v %v after Prepare, want its read-only synonym", name, uint64(alias.Page()), pte, ok)
			}
		}
	}
}

// TestPrepareWideFirstLane pins the skip's "no page yet" sentinel outside
// every page number: a trace whose first lane lies at page 2^36, beyond
// the modeled space (an unvalidated trace), is mapped like any other
// first lane, so Prepare panics exactly as mapping every lane does.
func TestPrepareWideFirstLane(t *testing.T) {
	b := trace.NewBuilder("wide", 1, 1, 1)
	b.Warp().Load(memory.VAddr(1)<<memory.VABits, 0x1000)
	tr := b.Build()
	panicOf := func(prepare func(*System, *trace.Trace)) (msg any) {
		s, err := New(DesignBaseline512())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { msg = recover() }()
		prepare(s, tr)
		return nil
	}
	got, want := panicOf((*System).Prepare), panicOf(prepareEveryLane)
	if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Prepare of a lane at page 2^36 panicked with %v; mapping every lane panics with %v", got, want)
	}
}
