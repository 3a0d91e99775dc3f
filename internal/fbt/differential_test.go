package fbt

import (
	"fmt"
	"testing"

	"vcache/internal/memory"
)

// diffGeometries are the BT shapes FuzzFBTDifferential draws from:
// power-of-two and other set counts, fully associative and direct-mapped
// tables.
var diffGeometries = []Config{
	{Entries: 16, Assoc: 4}, // 4 sets
	{Entries: 12, Assoc: 4}, // 3 sets
	{Entries: 8, Assoc: 8},  // fully associative
	{Entries: 8, Assoc: 1},  // direct-mapped, 8 sets
	{Entries: 6, Assoc: 1},  // direct-mapped, 6 sets
	{Entries: 64, Assoc: 8}, // 8 sets
}

var diffASIDs = []memory.ASID{1, 2, 3, 0x8001}

// diffPPNs are the physical pages a differential run draws from: a few
// dozen small pages and the same pages with the top bit set (a tag that
// dropped high bits would alias them).
func diffPPNs() []memory.PPN {
	var out []memory.PPN
	for i := memory.PPN(0); i < 40; i++ {
		out = append(out, i, i|1<<63)
	}
	return out
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// driveFBTDifferential plays ops (four bytes each) into the lane-based FBT
// and the reference model and requires every return value (panics
// included), the OnEvict sequence, the counters and the residency to agree
// after each one. mode picks the geometry and whether the generation
// counter starts at its ceiling; one op locks or unlocks a resident entry's
// way, and one Resets the FBT and replaces the reference with a freshly
// built one, which the reset FBT must then track.
func driveFBTDifferential(t *testing.T, mode byte, ops []byte) {
	cfg := diffGeometries[int(mode)%len(diffGeometries)]
	var fLog, rLog []View
	newRef := func() *refFBT {
		r := newRefFBT(cfg)
		r.OnEvict = func(v View) { rLog = append(rLog, v) }
		return r
	}
	f, r := New(cfg), newRef()
	if mode&0x08 != 0 {
		f.ep.SetGen(^uint32(0) - 3)
		r.ep.SetGen(^uint32(0) - 3)
	}
	f.OnEvict = func(v View) { fLog = append(fLog, v) }
	ppns := diffPPNs()
	for n := 0; n+3 < len(ops); n += 4 {
		b, arg, arg2, arg3 := ops[n], ops[n+1], ops[n+2], ops[n+3]
		ppn := ppns[int(arg)%len(ppns)]
		asid := diffASIDs[(b>>4)%4]
		vpn := 1000 + memory.VPN(arg2%48)
		idx := int(arg3 % memory.LinesPerPage)
		write := b&0x80 != 0
		var got, want string
		switch b % 14 {
		case 0:
			got, want = fmt.Sprint(f.FlushASID(asid)), fmt.Sprint(r.FlushASID(asid))
		case 1:
			switch {
			case arg%4 == 0:
				got, want = fmt.Sprint(f.FlushAll()), fmt.Sprint(r.FlushAll())
			case arg%32 == 1:
				f.Reset()
				r = newRef()
			}
		case 2:
			got, want = fmt.Sprint(f.Shootdown(asid, vpn)), fmt.Sprint(r.Shootdown(asid, vpn))
		case 3:
			got, want = fmt.Sprint(f.SetLine(ppn, idx)), fmt.Sprint(r.SetLine(ppn, idx))
		case 4:
			got, want = fmt.Sprint(f.ClearLine(asid, vpn, idx)), fmt.Sprint(r.ClearLine(asid, vpn, idx))
		case 5:
			f.MarkWrittenVPN(asid, vpn)
			r.MarkWrittenVPN(asid, vpn)
		case 6:
			got, want = fmt.Sprint(f.TranslateVPN(asid, vpn)), fmt.Sprint(r.TranslateVPN(asid, vpn))
		case 7:
			pa := ppn.Base() + memory.PAddr(idx*memory.LineSize)
			got, want = fmt.Sprint(f.FilterProbe(pa)), fmt.Sprint(r.FilterProbe(pa))
		case 8:
			got, want = fmt.Sprint(f.Check(ppn, asid, vpn, write)), fmt.Sprint(r.Check(ppn, asid, vpn, write))
		case 9:
			got, want = fmt.Sprint(f.LookupPPN(ppn)), fmt.Sprint(r.LookupPPN(ppn))
		case 10:
			if i := f.findPPN(ppn); i >= 0 {
				f.ents[i].locked = write
			}
			if e := r.findPPN(ppn); e != nil {
				e.locked = write
			}
		default:
			got, want = fmt.Sprint(f.Entry(ppn)), fmt.Sprint(r.Entry(ppn))
			if _, ok := r.Entry(ppn); !ok && got == want {
				var fv, rv View
				fp := recovered(func() { fv = f.Allocate(ppn, asid, vpn, memory.PermRead, write) })
				rp := recovered(func() { rv = r.Allocate(ppn, asid, vpn, memory.PermRead, write) })
				got, want = fmt.Sprint(fv, fp), fmt.Sprint(rv, rp)
			}
		}
		op := fmt.Sprintf("op %d (%d on ppn %#x, %d/%d)", n/4, b%14, uint64(ppn), asid, vpn)
		if got != want {
			t.Fatalf("%s: returned %s, reference %s", op, got, want)
		}
		if fmt.Sprint(fLog) != fmt.Sprint(rLog) {
			t.Fatalf("%s: OnEvict saw\n%v\nreference\n%v", op, fLog, rLog)
		}
		fLog, rLog = fLog[:0], rLog[:0]
		if f.Stats() != r.Stats() || f.Len() != r.Len() {
			t.Fatalf("%s: stats %+v len %d, reference %+v %d", op, f.Stats(), f.Len(), r.Stats(), r.Len())
		}
		for _, a := range diffASIDs {
			if f.ASIDResident(a) != r.ASIDResident(a) {
				t.Fatalf("%s: ASIDResident(%d) %d, reference %d", op, a, f.ASIDResident(a), r.ASIDResident(a))
			}
		}
	}
}

// TestFBTDifferential runs the differential over every geometry and mode
// bit with a fixed pseudo-random op stream.
func TestFBTDifferential(t *testing.T) {
	ops := make([]byte, 4*3000)
	x := uint32(4242)
	for i := range ops {
		x = x*1664525 + 1013904223
		ops[i] = byte(x >> 24)
	}
	for mode := 0; mode < 16; mode++ {
		driveFBTDifferential(t, byte(mode), ops)
	}
}

// FuzzFBTDifferential lets the fuzzer drive the lane-based FBT and the
// reference model with the same op stream.
func FuzzFBTDifferential(f *testing.F) {
	f.Add(byte(0), []byte{11, 0, 0, 0, 11, 4, 1, 0, 3, 0, 0, 5, 7, 0, 0, 5, 2, 0, 0, 0})
	f.Add(byte(0x0a), []byte{11, 0, 0, 0, 0x8a, 0, 0, 0, 11, 8, 1, 0, 11, 16, 2, 0, 0, 0, 0, 0})
	f.Add(byte(3), []byte{11, 1, 0, 0, 11, 9, 1, 0, 8, 1, 1, 0, 0x88, 1, 0, 0})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		if len(ops) > 4<<12 {
			ops = ops[:4<<12]
		}
		driveFBTDifferential(t, mode, ops)
	})
}
