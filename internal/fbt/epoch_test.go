package fbt

import (
	"math/rand"
	"testing"

	"vcache/internal/memory"
)

// pa builds the physical address of line idx inside ppn's page.
func pa(ppn memory.PPN, idx int) memory.PAddr {
	return ppn.Base() + memory.PAddr(idx*memory.LineSize)
}

// TestFlushAllFilterProbeConsistent pins the BT's coherence-filter role
// across a full flush: probes that forwarded before the flush must filter
// after it, and entries allocated after the flush — possibly into a
// flushed entry's slot — must forward again.
func TestFlushAllFilterProbeConsistent(t *testing.T) {
	f := New(Config{Entries: 16, Assoc: 4})
	for i := 0; i < 6; i++ {
		f.Allocate(memory.PPN(i), 1, memory.VPN(100+i), memory.PermRead, false)
		f.SetLine(memory.PPN(i), 3)
	}
	if _, _, fwd := f.FilterProbe(pa(2, 3)); !fwd {
		t.Fatal("probe of resident cached line filtered before flush")
	}
	if n := f.FlushAll(); n != 6 {
		t.Fatalf("FlushAll = %d, want 6", n)
	}
	for i := 0; i < 6; i++ {
		if va, asid, fwd := f.FilterProbe(pa(memory.PPN(i), 3)); fwd {
			t.Fatalf("probe of flushed ppn %d forwarded (va %#x asid %d)", i, uint64(va), asid)
		}
	}
	// Re-allocating a flushed PPN under a new leading page: the probe must
	// follow the new entry, not the dead slot.
	f.Allocate(2, 2, 500, memory.PermRead, false)
	f.SetLine(2, 7)
	if _, _, fwd := f.FilterProbe(pa(2, 3)); fwd {
		t.Fatal("probe forwarded on a clear bit of the re-allocated entry")
	}
	va, asid, fwd := f.FilterProbe(pa(2, 7))
	if !fwd || asid != 2 || va.Page() != 500 {
		t.Fatalf("re-allocated probe = %#x asid %d fwd %v, want leading page 500 asid 2", uint64(va), asid, fwd)
	}
	// FT consistency after the flush: the old leading pages translate
	// nothing, the new one translates.
	if _, _, ok := f.TranslateVPN(1, 102); ok {
		t.Fatal("flushed leading page still translates")
	}
	if ppn, _, ok := f.TranslateVPN(2, 500); !ok || ppn != 2 {
		t.Fatalf("new leading page translate = %d %v", ppn, ok)
	}
}

// TestFlushASIDFilterProbeConsistent is the selective form: only the
// flushed address space's entries stop forwarding, even though their dead
// slots still physically hold them.
func TestFlushASIDFilterProbeConsistent(t *testing.T) {
	f := New(Config{Entries: 16, Assoc: 4})
	f.Allocate(10, 1, 100, memory.PermRead, false)
	f.SetLine(10, 0)
	f.Allocate(20, 2, 200, memory.PermRead, false)
	f.SetLine(20, 0)
	if n := f.FlushASID(1); n != 1 {
		t.Fatalf("FlushASID(1) = %d, want 1", n)
	}
	if _, _, fwd := f.FilterProbe(pa(10, 0)); fwd {
		t.Fatal("flushed asid 1 entry still forwards probes")
	}
	if _, asid, fwd := f.FilterProbe(pa(20, 0)); !fwd || asid != 2 {
		t.Fatal("asid 2 entry stopped forwarding after asid 1's flush")
	}
	if f.ASIDResident(1) != 0 || f.ASIDResident(2) != 1 || f.Len() != 1 {
		t.Fatalf("residency after ASID flush: asid1=%d asid2=%d len=%d",
			f.ASIDResident(1), f.ASIDResident(2), f.Len())
	}
}

// scanFlushASID is the reference model of the epoch-based FlushASID: it
// walks the table and evicts each live entry of asid one by one, counting
// what it drops instead of trusting the residency counters.
func scanFlushASID(f *FBT, asid memory.ASID) int {
	n := 0
	for i := 0; i < f.sets.Slots(); i++ {
		if f.sets.ASID(i) == uint16(asid) && f.sets.Live(i) {
			f.evict(i)
			n++
		}
	}
	return n
}

// TestLazyEagerFBTParityFuzz drives one random op stream into two FBTs:
// the lazy one flushes address spaces through the epoch path, the eager
// one through the scan reference model. The observable surface must stay
// equal.
func TestLazyEagerFBTParityFuzz(t *testing.T) {
	lazy := New(Config{Entries: 16, Assoc: 4})
	eager := New(Config{Entries: 16, Assoc: 4})
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 4000; op++ {
		ppn := memory.PPN(rng.Intn(48))
		asid := memory.ASID(1 + rng.Intn(3))
		switch rng.Intn(12) {
		case 0:
			if l, e := lazy.FlushASID(asid), scanFlushASID(eager, asid); l != e {
				t.Fatalf("op %d: FlushASID %d vs %d", op, l, e)
			}
		case 1:
			if op%5 == 0 {
				if l, e := lazy.FlushAll(), eager.FlushAll(); l != e {
					t.Fatalf("op %d: FlushAll %d vs %d", op, l, e)
				}
			}
		case 2:
			vpn := memory.VPN(1000 + rng.Intn(64))
			if l, e := lazy.Shootdown(asid, vpn), eager.Shootdown(asid, vpn); l != e {
				t.Fatalf("op %d: Shootdown %v vs %v", op, l, e)
			}
		case 3:
			idx := rng.Intn(memory.LinesPerPage)
			if l, e := lazy.SetLine(ppn, idx), eager.SetLine(ppn, idx); l != e {
				t.Fatalf("op %d: SetLine %v vs %v", op, l, e)
			}
		case 4:
			idx := rng.Intn(memory.LinesPerPage)
			lv, la, lf := lazy.FilterProbe(pa(ppn, idx))
			ev, ea, ef := eager.FilterProbe(pa(ppn, idx))
			if lf != ef || lv != ev || la != ea {
				t.Fatalf("op %d: FilterProbe(%d,%d) diverged: %v/%d/%v vs %v/%d/%v",
					op, ppn, idx, lv, la, lf, ev, ea, ef)
			}
		default:
			if _, ok := lazy.Entry(ppn); !ok {
				vpn := memory.VPN(1000 + rng.Intn(64))
				lazy.Allocate(ppn, asid, vpn, memory.PermRead, false)
				if _, ok := eager.Entry(ppn); ok {
					t.Fatalf("op %d: eager holds ppn %d the lazy table misses", op, ppn)
				}
				eager.Allocate(ppn, asid, vpn, memory.PermRead, false)
			} else {
				lv, lok := lazy.LookupPPN(ppn)
				ev, eok := eager.LookupPPN(ppn)
				if lok != eok || lv != ev {
					t.Fatalf("op %d: LookupPPN(%d) diverged: %+v/%v vs %+v/%v", op, ppn, lv, lok, ev, eok)
				}
			}
		}
		if lazy.Len() != eager.Len() {
			t.Fatalf("op %d: Len %d vs %d", op, lazy.Len(), eager.Len())
		}
		for a := memory.ASID(1); a <= 3; a++ {
			if lazy.ASIDResident(a) != eager.ASIDResident(a) {
				t.Fatalf("op %d: ASIDResident(%d) %d vs %d", op, a, lazy.ASIDResident(a), eager.ASIDResident(a))
			}
		}
	}
	if lazy.Stats() != eager.Stats() {
		t.Fatalf("stats diverged\nlazy:  %+v\neager: %+v", lazy.Stats(), eager.Stats())
	}
}
