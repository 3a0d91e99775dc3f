package cache

import (
	"fmt"
	"testing"

	"vcache/internal/memory"
)

// diffGeometries are the shapes FuzzCacheDifferential draws from: power-of-
// two and other set counts, fully associative and direct-mapped caches,
// more ways than lines, and 1-byte lines, whose line addresses use every
// address bit.
var diffGeometries = []Config{
	{SizeBytes: 4096, LineBytes: 64, Assoc: 4},       // 16 sets
	{SizeBytes: 3 * 4 * 64, LineBytes: 64, Assoc: 4}, // 3 sets
	{SizeBytes: 8 * 128, LineBytes: 128, Assoc: 8},   // fully associative
	{SizeBytes: 16 * 128, LineBytes: 128, Assoc: 1},  // direct-mapped, 16 sets
	{SizeBytes: 5 * 128, LineBytes: 128, Assoc: 1},   // direct-mapped, 5 sets
	{SizeBytes: 64, LineBytes: 64, Assoc: 4},         // one line, four ways
	{SizeBytes: 6, LineBytes: 1, Assoc: 2},           // 1-byte lines, 3 sets
	{SizeBytes: 4, LineBytes: 1, Assoc: 4},           // 1-byte lines, fully associative
}

// diffAddrs returns the addresses a differential run draws from: a few
// dozen lines spread over a few pages, the same lines with the top address
// bit set (a tag that dropped high bits would alias them), offsets inside
// lines, and the first and last lines of the address space.
func diffAddrs(lineBytes int) []uint64 {
	var out []uint64
	for i := uint64(0); i < 40; i++ {
		a := i * 3 * uint64(lineBytes) * 7 % (3 * memory.PageSize)
		out = append(out, a, a|1<<63, a+uint64(lineBytes)/2)
	}
	return append(out, 0, ^uint64(0), ^uint64(0)-uint64(lineBytes))
}

// evictLog records what OnEvict saw, in order, with each line's lifetime.
type evictLog []string

func (l *evictLog) add(addr uint64, valid, dirty bool, perm memory.Perm, asid memory.ASID, in, last, life uint64) {
	*l = append(*l, fmt.Sprintf("%#x v%v d%v p%v a%d in%d last%d life%d", addr, valid, dirty, perm, asid, in, last, life))
}

func fmtLine(l Line) string {
	return fmt.Sprintf("%#x v%v d%v p%v a%d in%d last%d", l.Addr, l.Valid, l.Dirty, l.Perm, l.ASID, l.InsertedAt(), l.LastAccess())
}

func fmtRefLine(l refLine) string {
	return fmt.Sprintf("%#x v%v d%v p%v a%d in%d last%d", l.Addr, l.Valid, l.Dirty, l.Perm, l.ASID, l.InsertedAt(), l.LastAccess())
}

// driveCacheDifferential plays ops (three bytes each) into the lane-based
// cache and the reference model and requires every return value, the
// OnEvict sequence and every counter to agree after each one. mode picks
// the geometry, the write policy, whether the caches keep page counts and
// track lifetimes on a clock (untracked, every lifetime stamp reads 0 in
// both), and whether the generation counter starts at its ceiling. One op
// Resets the cache and replaces the reference with a freshly built one,
// which the reset cache must then track.
func driveCacheDifferential(t *testing.T, mode byte, ops []byte) {
	cfg := diffGeometries[int(mode)%len(diffGeometries)]
	if mode&0x08 != 0 {
		cfg.Policy = WriteBack
	}
	var clock uint64
	track := mode&0x20 != 0
	var cLog, rLog evictLog
	newRef := func() *refCache {
		r := newRefCache(cfg)
		if mode&0x10 != 0 {
			r.Clock = func() uint64 { return clock }
		}
		if track {
			r.TrackPages()
		}
		r.OnEvict = func(l refLine) {
			rLog.add(l.Addr, l.Valid, l.Dirty, l.Perm, l.ASID, l.InsertedAt(), l.LastAccess(), l.ActiveLifetime())
		}
		return r
	}
	c, r := New(cfg), newRef()
	if mode&0x10 != 0 {
		c.TrackLifetimes(r.Clock)
	}
	if track {
		c.TrackPages()
	}
	if mode&0x40 != 0 {
		c.ep.SetGen(^uint32(0) - 3)
		r.ep.SetGen(^uint32(0) - 3)
	}
	c.OnEvict = func(l Line) {
		cLog.add(l.Addr, l.Valid, l.Dirty, l.Perm, l.ASID, l.InsertedAt(), l.LastAccess(), l.ActiveLifetime())
	}
	addrs := diffAddrs(cfg.LineBytes)
	for n := 0; n+2 < len(ops); n += 3 {
		b, arg := ops[n], ops[n+1]
		clock += uint64(ops[n+2]%4) + 1
		addr := addrs[int(arg)%len(addrs)]
		asid := memory.ASID(1 + (b>>4)%4)
		write := b&0x80 != 0
		perm := memory.PermRead
		if ops[n+2]&0x80 != 0 {
			perm |= memory.PermWrite
		}
		var got, want string
		switch b % 11 {
		case 0:
			got, want = fmt.Sprint(c.InvalidateASID(asid)), fmt.Sprint(r.InvalidateASID(asid))
		case 1:
			switch {
			case arg%4 == 0:
				got, want = fmt.Sprint(c.InvalidateAll()), fmt.Sprint(r.InvalidateAll())
			case arg%32 == 1:
				c.Reset()
				r = newRef()
			}
		case 2:
			got, want = fmt.Sprint(c.InvalidateLine(addr)), fmt.Sprint(r.InvalidateLine(addr))
		case 3:
			got, want = fmt.Sprint(c.InvalidatePage(addr)), fmt.Sprint(r.InvalidatePage(addr))
		case 4, 5:
			cl, cok := c.Fill(addr, perm, asid, write)
			rl, rok := r.Fill(addr, perm, asid, write)
			got, want = fmt.Sprint(fmtLine(cl), cok), fmt.Sprint(fmtRefLine(rl), rok)
		case 6:
			got, want = fmt.Sprint(c.Probe(addr)), fmt.Sprint(r.Probe(addr))
		case 7:
			cl, cok := c.Get(addr)
			rl, rok := r.Get(addr)
			got, want = fmt.Sprint(fmtLine(cl), cok), fmt.Sprint(fmtRefLine(rl), rok)
		default:
			cl, cok := c.Access(addr, write)
			rl, rok := r.Access(addr, write)
			got, want = fmt.Sprint(fmtLine(cl), cok), fmt.Sprint(fmtRefLine(rl), rok)
		}
		op := fmt.Sprintf("op %d (%d on %#x, asid %d)", n/3, b%11, addr, asid)
		if got != want {
			t.Fatalf("%s: returned %s, reference %s", op, got, want)
		}
		if fmt.Sprint(cLog) != fmt.Sprint(rLog) {
			t.Fatalf("%s: OnEvict saw\n%v\nreference\n%v", op, cLog, rLog)
		}
		cLog, rLog = cLog[:0], rLog[:0]
		if c.Stats() != r.Stats() || c.Resident() != r.Resident() || c.DirtyLines() != r.DirtyLines() {
			t.Fatalf("%s: stats %+v resident %d dirty %d, reference %+v %d %d",
				op, c.Stats(), c.Resident(), c.DirtyLines(), r.Stats(), r.Resident(), r.DirtyLines())
		}
		for a := memory.ASID(1); a <= 4; a++ {
			cn, cd := c.ASIDResident(a)
			rn, rd := r.ASIDResident(a)
			if cn != rn || cd != rd {
				t.Fatalf("%s: ASIDResident(%d) %d/%d, reference %d/%d", op, a, cn, cd, rn, rd)
			}
		}
		if track && c.DistinctPages() != r.DistinctPages() {
			t.Fatalf("%s: DistinctPages %d, reference %d", op, c.DistinctPages(), r.DistinctPages())
		}
	}
}

// TestCacheDifferential runs the differential over every geometry and mode
// bit with a fixed pseudo-random op stream.
func TestCacheDifferential(t *testing.T) {
	ops := make([]byte, 3*3000)
	x := uint32(12345)
	for i := range ops {
		x = x*1664525 + 1013904223
		ops[i] = byte(x >> 24)
	}
	for mode := 0; mode < 128; mode++ {
		driveCacheDifferential(t, byte(mode), ops)
	}
}

// FuzzCacheDifferential lets the fuzzer drive the lane-based cache and the
// reference model with the same op stream.
func FuzzCacheDifferential(f *testing.F) {
	f.Add(byte(0), []byte{4, 0, 1, 4, 40, 2, 8, 0, 3, 0, 0, 1, 8, 40, 0})
	f.Add(byte(0x78), []byte{0x84, 120, 0x81, 0x94, 121, 0, 3, 0, 0, 1, 0, 0, 0x85, 122, 1})
	f.Add(byte(6), []byte{4, 1, 0, 4, 2, 0, 4, 3, 0, 5, 119, 0, 4, 120, 0, 8, 120, 1})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		if len(ops) > 3<<12 {
			ops = ops[:3<<12]
		}
		driveCacheDifferential(t, mode, ops)
	})
}
