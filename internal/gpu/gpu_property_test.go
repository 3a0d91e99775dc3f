package gpu

import (
	"testing"
	"testing/quick"

	"vcache/internal/memory"
	"vcache/internal/sim"
	"vcache/internal/trace"
)

// countingPath counts requests and answers after a pseudo-random latency,
// stressing completion ordering.
type countingPath struct {
	eng  *sim.Engine
	rng  uint64
	reqs uint64
}

func (p *countingPath) Access(cu int, addr memory.VAddr, write bool, done func()) {
	p.reqs++
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	p.eng.Schedule(p.rng%300, done)
}

// Property: any random trace runs to completion, executes every
// instruction exactly once, and issues exactly the coalesced request count
// to the memory path — regardless of response latencies.
func TestRandomTraceCompletionProperty(t *testing.T) {
	f := func(seed uint64, shape []uint16) bool {
		if len(shape) == 0 {
			return true
		}
		b := trace.NewBuilder("prop", 1, 3, 2)
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var insts, lines uint64
		for _, s := range shape {
			w := b.Warp()
			switch s % 5 {
			case 0:
				w.Compute(uint64(s%7) + 1)
				insts++
			case 1:
				w.ScratchLoad(uint64(s % 5))
				insts++
			default:
				n := int(s%8) + 1
				addrs := make([]memory.VAddr, n)
				for l := range addrs {
					addrs[l] = memory.VAddr(next() % (1 << 22)).Line()
				}
				if s%2 == 0 {
					w.Store(addrs...)
				} else {
					w.Load(addrs...)
				}
				insts++
				lines += uint64(len(trace.CoalesceLines(addrs)))
			}
			if s%11 == 0 {
				b.Barrier()
				insts += 6 // one barrier inst per warp context (3 CUs x 2)
			}
		}
		eng := sim.New()
		p := &countingPath{eng: eng, rng: seed | 3}
		g := New(Config{NumCUs: 3, Lanes: 32, IssuePerCycle: 1, ScratchLatency: 2}, eng, p, direct{})
		completed := false
		g.Launch(b.Build(), func() { completed = true })
		eng.Run()
		if !completed || g.LiveWarps() != 0 {
			return false
		}
		st := g.Stats()
		return st.Instructions == insts && st.CoalescedReqs == lines && p.reqs == lines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
