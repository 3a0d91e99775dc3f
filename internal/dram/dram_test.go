package dram

import (
	"testing"

	"vcache/internal/sim"
)

func TestAccessLatency(t *testing.T) {
	eng := sim.New()
	d := New(eng, Config{Latency: 160, LinesPerCycle: 2})
	var done uint64
	d.Access(false, sim.Func(func() { done = eng.Now() }), 0)
	eng.Run()
	if done != 160 {
		t.Fatalf("read completed at %d, want 160", done)
	}
	if d.Stats().Reads != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestBandwidthContention(t *testing.T) {
	eng := sim.New()
	d := New(eng, Config{Latency: 100, LinesPerCycle: 2})
	var finishes []uint64
	for i := 0; i < 6; i++ {
		d.Access(i%2 == 0, sim.Func(func() { finishes = append(finishes, eng.Now()) }), 0)
	}
	eng.Run()
	// 2 lines/cycle: pairs complete at 100, 101, 102.
	want := []uint64{100, 100, 101, 101, 102, 102}
	for i, w := range want {
		if finishes[i] != w {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
	if d.QueueDelay() != 0+0+1+1+2+2 {
		t.Fatalf("QueueDelay = %d, want 6", d.QueueDelay())
	}
	s := d.Stats()
	if s.Reads != 3 || s.Writes != 3 || s.Accesses() != 6 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Latency == 0 || c.LinesPerCycle == 0 {
		t.Fatalf("default config = %+v", c)
	}
}
