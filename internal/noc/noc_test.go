package noc

import (
	"testing"

	"vcache/internal/sim"
)

func TestSendLatency(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	n.AddLink(CUToL2, 10, 0)
	var arrived uint64
	n.Send(CUToL2, sim.Func(func() { arrived = eng.Now() }), 0)
	eng.Run()
	if arrived != 10 {
		t.Fatalf("arrival = %d, want 10", arrived)
	}
	if n.Link(CUToL2).Messages != 1 {
		t.Fatal("message not counted")
	}
}

func TestUnknownRouteZeroLatency(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	delivered := false
	n.Send(Route("nowhere"), sim.Func(func() { delivered = true }), 0)
	eng.Run()
	if !delivered || eng.Now() != 0 {
		t.Fatalf("unknown route: delivered=%v at %d", delivered, eng.Now())
	}
	if n.Latency("nowhere") != 0 {
		t.Fatal("unknown route latency not 0")
	}
}

func TestBandwidthLimitedLink(t *testing.T) {
	eng := sim.New()
	n := New(eng)
	n.AddLink(L2ToIOMMU, 5, 1)
	var arrivals []uint64
	for i := 0; i < 3; i++ {
		n.Send(L2ToIOMMU, sim.Func(func() { arrivals = append(arrivals, eng.Now()) }), 0)
	}
	eng.Run()
	want := []uint64{5, 6, 7}
	for i, w := range want {
		if arrivals[i] != w {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}
