package fbt

import (
	"testing"
	"testing/quick"

	"vcache/internal/memory"
)

func small() *FBT { return New(Config{Entries: 8, Assoc: 2}) }

func TestAllocateAndCheckLeading(t *testing.T) {
	f := small()
	if o, _ := f.Check(100, 1, 7, false); o != Miss {
		t.Fatalf("Check on empty = %v, want Miss", o)
	}
	f.Allocate(100, 1, 7, memory.PermRead|memory.PermWrite, false)
	o, v := f.Check(100, 1, 7, false)
	if o != Leading || v.LVPN != 7 {
		t.Fatalf("Check = %v %+v", o, v)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestReadOnlySynonymReplay(t *testing.T) {
	f := small()
	f.Allocate(100, 1, 7, memory.PermRead, false)
	// Read via a different virtual page naming the same PPN.
	o, v := f.Check(100, 1, 99, false)
	if o != Synonym {
		t.Fatalf("Check = %v, want Synonym", o)
	}
	if v.LVPN != 7 {
		t.Fatalf("leading VPN = %d, want 7", v.LVPN)
	}
	if f.Stats().SynonymAccesses != 1 {
		t.Fatalf("stats = %+v", f.Stats())
	}
}

func TestReadWriteSynonymFaults(t *testing.T) {
	// Case 1: write through a synonym.
	f := small()
	f.Allocate(100, 1, 7, memory.PermRead|memory.PermWrite, false)
	if o, _ := f.Check(100, 1, 99, true); o != RWFault {
		t.Fatalf("synonym write = %v, want RWFault", o)
	}
	// Case 2: read through a synonym after the page was written.
	f2 := small()
	f2.Allocate(200, 1, 8, memory.PermRead|memory.PermWrite, false)
	if o, _ := f2.Check(200, 1, 8, true); o != Leading { // leading write
		t.Fatal("leading write misclassified")
	}
	if o, _ := f2.Check(200, 1, 55, false); o != RWFault {
		t.Fatalf("synonym read of written page = %v, want RWFault", o)
	}
	// Case 3: leading write after synonym read.
	f3 := small()
	f3.Allocate(300, 1, 9, memory.PermRead|memory.PermWrite, false)
	f3.Check(300, 1, 77, false) // read-only synonym use
	if o, _ := f3.Check(300, 1, 9, true); o != RWFault {
		t.Fatalf("leading write after synonym use = %v, want RWFault", o)
	}
	if f3.Stats().RWSynonymFaults != 1 {
		t.Fatalf("fault count = %d", f3.Stats().RWSynonymFaults)
	}
}

func TestBitVectorTracking(t *testing.T) {
	f := small()
	f.Allocate(100, 1, 7, memory.PermRead, false)
	if !f.SetLine(100, 3) || !f.SetLine(100, 31) {
		t.Fatal("SetLine failed")
	}
	v, _ := f.Entry(100)
	if v.BitVec != (1<<3 | 1<<31) {
		t.Fatalf("bitvec = %#x", v.BitVec)
	}
	// Clear via the FT (virtual path, as on an L2 eviction).
	if !f.ClearLine(1, 7, 3) {
		t.Fatal("ClearLine failed")
	}
	v, _ = f.Entry(100)
	if v.BitVec != 1<<31 {
		t.Fatalf("bitvec after clear = %#x", v.BitVec)
	}
	if f.SetLine(555, 0) {
		t.Fatal("SetLine hit for absent PPN")
	}
	if f.ClearLine(1, 555, 0) {
		t.Fatal("ClearLine hit for absent VPN")
	}
}

func TestEvictionCallbackAndFTConsistency(t *testing.T) {
	f := New(Config{Entries: 2, Assoc: 2}) // one set
	var evicted []View
	f.OnEvict = func(v View) { evicted = append(evicted, v) }
	f.Allocate(0, 1, 10, memory.PermRead, false)
	f.Allocate(1, 1, 11, memory.PermRead, false)
	f.SetLine(0, 5)
	f.Allocate(2, 1, 12, memory.PermRead, false) // evicts LRU = ppn 0
	if len(evicted) != 1 || evicted[0].PPN != 0 || evicted[0].BitVec != 1<<5 {
		t.Fatalf("evicted = %+v", evicted)
	}
	// FT entry for the evicted page is gone.
	if _, _, ok := f.TranslateVPN(1, 10); ok {
		t.Fatal("FT entry survived BT eviction")
	}
	if _, _, ok := f.TranslateVPN(1, 12); !ok {
		t.Fatal("live FT entry missing")
	}
}

func TestSecondaryTLB(t *testing.T) {
	f := small()
	f.Allocate(100, 1, 7, memory.PermRead, false)
	ppn, perm, ok := f.TranslateVPN(1, 7)
	if !ok || ppn != 100 || perm != memory.PermRead {
		t.Fatalf("TranslateVPN = %v %v %v", ppn, perm, ok)
	}
	if _, _, ok := f.TranslateVPN(2, 7); ok {
		t.Fatal("cross-ASID FT hit")
	}
	s := f.Stats()
	if s.SecondaryTLBHits != 1 || s.SecondaryTLBMiss != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestShootdown(t *testing.T) {
	f := small()
	var evicted []View
	f.OnEvict = func(v View) { evicted = append(evicted, v) }
	f.Allocate(100, 1, 7, memory.PermRead, false)
	if !f.Shootdown(1, 7) {
		t.Fatal("shootdown of live page filtered")
	}
	if len(evicted) != 1 {
		t.Fatal("shootdown did not trigger invalidation")
	}
	if f.Shootdown(1, 7) {
		t.Fatal("repeat shootdown not filtered")
	}
	s := f.Stats()
	if s.ShootdownsApplied != 1 || s.ShootdownsFiltered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCoherenceFilter(t *testing.T) {
	f := small()
	f.Allocate(100, 1, 7, memory.PermRead, false)
	f.SetLine(100, 2)
	pa := memory.PPN(100).Base() + memory.PAddr(2*memory.LineSize+16)
	va, asid, fwd := f.FilterProbe(pa)
	if !fwd {
		t.Fatal("probe for cached line filtered")
	}
	if asid != 1 {
		t.Fatalf("probe ASID = %d, want 1", asid)
	}
	wantVA := memory.VPN(7).Base() + memory.VAddr(2*memory.LineSize+16)
	if va != wantVA {
		t.Fatalf("reverse translation = %#x, want %#x", uint64(va), uint64(wantVA))
	}
	// Uncached line of a tracked page: filtered by bit vector.
	if _, _, fwd := f.FilterProbe(memory.PPN(100).Base()); fwd {
		t.Fatal("probe for uncached line forwarded")
	}
	// Untracked page: filtered.
	if _, _, fwd := f.FilterProbe(memory.PPN(500).Base()); fwd {
		t.Fatal("probe for untracked page forwarded")
	}
	s := f.Stats()
	if s.CoherenceForwarded != 1 || s.CoherenceFiltered != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFlushAll: FlushASID retires an address space without OnEvict, and
// FlushAll evicts each remaining live entry through it exactly once, so
// the owner can invalidate every page's cached data.
func TestFlushAll(t *testing.T) {
	f := small()
	evicted := map[memory.PPN]int{}
	f.OnEvict = func(v View) { evicted[v.PPN]++ }
	for i := 0; i < 6; i++ {
		f.Allocate(memory.PPN(i), memory.ASID(1+i%2), memory.VPN(i+100), memory.PermRead, false)
	}
	if n := f.FlushASID(1); n != 3 || len(evicted) != 0 {
		t.Fatalf("FlushASID = %d with %d OnEvict calls, want 3 and none", n, len(evicted))
	}
	if n := f.FlushAll(); n != 3 {
		t.Fatalf("FlushAll = %d, want 3", n)
	}
	if f.Len() != 0 {
		t.Fatal("entries survived flush")
	}
	for i := 0; i < 6; i++ {
		if got, want := evicted[memory.PPN(i)], i%2; got != want { // asid 2's entries were live
			t.Errorf("ppn %d: OnEvict fired %d times, want %d", i, got, want)
		}
	}
}

func TestAllocatePanicsOnResident(t *testing.T) {
	f := small()
	f.Allocate(100, 1, 7, memory.PermRead, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double Allocate did not panic")
		}
	}()
	f.Allocate(100, 1, 8, memory.PermRead, false)
}

// Property: one leading VPN per resident PPN; FT and BT always agree.
func TestFTBTConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		fb := New(Config{Entries: 16, Assoc: 4})
		for _, op := range ops {
			ppn := memory.PPN(op % 32)
			vpn := memory.VPN(1000 + op%64)
			if _, ok := fb.Entry(ppn); !ok {
				fb.Allocate(ppn, 1, vpn, memory.PermRead, false)
			}
			// Every resident entry must be reachable through the FT.
			v, _ := fb.Entry(ppn)
			got, _, ok := fb.TranslateVPN(1, v.LVPN)
			if !ok || got != ppn {
				return false
			}
		}
		return fb.Len() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigReach(t *testing.T) {
	if DefaultConfig().ReachBytes() != 64<<20 {
		t.Fatalf("default reach = %d, want 64MB", DefaultConfig().ReachBytes())
	}
}
