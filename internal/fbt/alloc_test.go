package fbt

import (
	"testing"

	"vcache/internal/memory"
)

// TestAllocateZeroAlloc pins the point of the flat forward table: once the
// FBT is built, the steady-state allocate/evict/shootdown cycle touches the
// heap zero times. The FT is presized for the BT's capacity in New, BT
// entries live in flat slot lanes rather than behind per-entry pointers, and
// probe-path reclamation replaces map rebuilds — so nothing on the hot path
// allocates.
func TestAllocateZeroAlloc(t *testing.T) {
	f := New(Config{Entries: 256, Assoc: 4})
	// Warm past capacity so every further Allocate evicts a victim, and
	// mix in an ASID flush so dead residue is in play too.
	for i := 0; i < 512; i++ {
		f.Allocate(memory.PPN(i), memory.ASID(1+i%3), memory.VPN(i), memory.PermRead, false)
	}
	f.FlushASID(2)

	vpn := memory.VPN(512)
	allocs := testing.AllocsPerRun(2000, func() {
		ppn := memory.PPN(uint64(vpn) % 1024)
		f.Shootdown(memory.ASID(1), vpn-256)
		if f.findPPN(ppn) < 0 {
			f.Allocate(ppn, memory.ASID(1), vpn, memory.PermRead, false)
		}
		f.TranslateVPN(memory.ASID(1), vpn)
		f.Check(ppn, memory.ASID(1), vpn, false)
		vpn++
	})
	if allocs != 0 {
		t.Fatalf("steady-state FBT cycle allocates %.1f times per run, want 0", allocs)
	}
	// The presize is two FT slots per BT entry, and the churn never grew it.
	if got := f.ft.Cap(); got != 512 {
		t.Errorf("forward table has %d slots after the churn, want 512", got)
	}
	if got := New(DefaultConfig()).ft.Cap(); got != 32768 {
		t.Errorf("default forward table has %d slots, want 32768", got)
	}
}
