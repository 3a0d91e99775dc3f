package tlb

import (
	"fmt"
	"testing"

	"vcache/internal/memory"
)

// diffGeometries are the finite shapes FuzzTLBDifferential draws from:
// fully associative, power-of-two and other set counts, and direct-mapped
// TLBs.
var diffGeometries = []Config{
	{Entries: 32},            // fully associative
	{Entries: 512, Assoc: 8}, // 64 sets
	{Entries: 24, Assoc: 4},  // 6 sets
	{Entries: 8, Assoc: 1},   // direct-mapped, 8 sets
	{Entries: 12, Assoc: 1},  // direct-mapped, 12 sets
	{Entries: 16, Assoc: 4},  // 4 sets
	{Entries: 1, Assoc: 1},   // one entry
	{Entries: 6, Assoc: 6},   // fully associative, 6 ways
}

// diffASIDs are the address spaces a differential run draws from,
// including ones that differ only in the bits the set hash shifts.
var diffASIDs = []memory.ASID{1, 2, 3, 0x8001}

// diffVPNs returns the pages a differential run draws from: a few dozen
// small pages, pages inside and at the base of 2MB regions, and the same
// pages with the top bits set (a tag that dropped high bits would alias
// them).
func diffVPNs() []memory.VPN {
	var out []memory.VPN
	for i := memory.VPN(0); i < 24; i++ {
		out = append(out, i, i|1<<63, i|1<<62)
	}
	for r := memory.VPN(1); r <= 3; r++ {
		base := r * memory.PagesPerLarge
		out = append(out, base, base+1, base+37, base|1<<63)
	}
	return append(out, ^memory.VPN(0))
}

func fmtEntry(e Entry, ok bool) string {
	return fmt.Sprintf("%d/%#x -> %#x p%v l%v in%d %v", e.ASID, uint64(e.VPN), uint64(e.PPN), e.Perm, e.Large, e.insertedAt, ok)
}

func fmtRefEntry(e refEntry, ok bool) string {
	return fmt.Sprintf("%d/%#x -> %#x p%v l%v in%d %v", e.ASID, uint64(e.VPN), uint64(e.PPN), e.Perm, e.Large, e.insertedAt, ok)
}

// driveTLBDifferential plays ops (three bytes each) into the lane-based
// finite TLB and the reference model and requires every return value, the
// OnEvict sequence with lifetimes, the counters and the residency to agree
// after each one. mode picks the geometry, whether the TLBs track
// lifetimes on a clock (untracked, every insert stamp and lifetime reads 0
// in both) and whether the generation counter starts at its ceiling. One
// op Resets the TLB and replaces the reference with a freshly built one,
// which the reset TLB must then track.
func driveTLBDifferential(t *testing.T, mode byte, ops []byte) {
	cfg := diffGeometries[int(mode)%len(diffGeometries)]
	var clock uint64
	var tLog, rLog []string
	newRef := func() *refTLB {
		r := newRefTLB(cfg)
		if mode&0x08 != 0 {
			r.Clock = func() uint64 { return clock }
		}
		r.OnEvict = func(e refEntry, life uint64) { rLog = append(rLog, fmtRefEntry(e, true)+fmt.Sprint(" life", life)) }
		return r
	}
	tb, r := New(cfg), newRef()
	if mode&0x08 != 0 {
		tb.TrackLifetimes(r.Clock)
	}
	if mode&0x10 != 0 {
		tb.ep.SetGen(^uint32(0) - 3)
		r.ep.SetGen(^uint32(0) - 3)
	}
	tb.OnEvict = func(e Entry, life uint64) { tLog = append(tLog, fmtEntry(e, true)+fmt.Sprint(" life", life)) }
	vpns := diffVPNs()
	for n := 0; n+2 < len(ops); n += 3 {
		b, arg := ops[n], ops[n+1]
		clock += uint64(ops[n+2]%4) + 1
		vpn := vpns[int(arg)%len(vpns)]
		asid := diffASIDs[(b>>4)%4]
		ppn := memory.PPN(ops[n+2]) << 9
		perm := memory.PermRead
		if b&0x80 != 0 {
			perm |= memory.PermWrite
		}
		var got, want string
		switch b % 9 {
		case 0:
			got, want = fmt.Sprint(tb.InvalidateASID(asid)), fmt.Sprint(r.InvalidateASID(asid))
		case 1:
			switch {
			case arg%4 == 0:
				got, want = fmt.Sprint(tb.InvalidateAll()), fmt.Sprint(r.InvalidateAll())
			case arg%32 == 1:
				tb.Reset()
				r = newRef()
			}
		case 2:
			got, want = fmt.Sprint(tb.InvalidatePage(asid, vpn)), fmt.Sprint(r.InvalidatePage(asid, vpn))
		case 3:
			tb.InsertLarge(asid, vpn, ppn, perm)
			r.InsertLarge(asid, vpn, ppn, perm)
		case 4, 5:
			tb.Insert(asid, vpn, ppn, perm)
			r.Insert(asid, vpn, ppn, perm)
		case 6:
			got, want = fmt.Sprint(tb.Probe(asid, vpn)), fmt.Sprint(r.Probe(asid, vpn))
		default:
			te, tok := tb.Lookup(asid, vpn)
			re, rok := r.Lookup(asid, vpn)
			got, want = fmtEntry(te, tok), fmtRefEntry(re, rok)
			if tok && rok && te.Frame(vpn) != re.Frame(vpn) {
				got, want = fmt.Sprint(te.Frame(vpn)), fmt.Sprint(re.Frame(vpn))
			}
		}
		op := fmt.Sprintf("op %d (%d on %d/%#x)", n/3, b%9, asid, uint64(vpn))
		if got != want {
			t.Fatalf("%s: returned %s, reference %s", op, got, want)
		}
		if fmt.Sprint(tLog) != fmt.Sprint(rLog) {
			t.Fatalf("%s: OnEvict saw\n%v\nreference\n%v", op, tLog, rLog)
		}
		tLog, rLog = tLog[:0], rLog[:0]
		if tb.Stats() != r.Stats() || tb.Len() != r.Len() || tb.large != r.large {
			t.Fatalf("%s: stats %+v len %d large %d, reference %+v %d %d",
				op, tb.Stats(), tb.Len(), tb.large, r.Stats(), r.Len(), r.large)
		}
	}
}

// TestTLBDifferential runs the differential over every geometry and mode
// bit with a fixed pseudo-random op stream.
func TestTLBDifferential(t *testing.T) {
	ops := make([]byte, 3*3000)
	x := uint32(777)
	for i := range ops {
		x = x*1664525 + 1013904223
		ops[i] = byte(x >> 24)
	}
	for mode := 0; mode < 32; mode++ {
		driveTLBDifferential(t, byte(mode), ops)
	}
}

// FuzzTLBDifferential lets the fuzzer drive the lane-based TLB and the
// reference model with the same op stream.
func FuzzTLBDifferential(f *testing.F) {
	f.Add(byte(0), []byte{4, 0, 1, 4, 1, 2, 7, 0, 0, 7, 1, 0, 0, 0, 0, 7, 0, 0})
	f.Add(byte(0x19), []byte{3, 72, 4, 7, 73, 0, 4, 72, 5, 7, 72, 0, 2, 73, 0, 1, 0, 0})
	f.Add(byte(6), []byte{4, 1, 1, 4, 4, 2, 7, 1, 0, 7, 4, 0})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		if len(ops) > 3<<12 {
			ops = ops[:3<<12]
		}
		driveTLBDifferential(t, mode, ops)
	})
}
