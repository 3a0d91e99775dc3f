package tlb

import (
	"testing"

	"vcache/internal/memory"
)

func BenchmarkLookupHit(b *testing.B) {
	t := New(Config{Entries: 32})
	for i := 0; i < 32; i++ {
		t.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(1, memory.VPN(i%32))
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	t := New(Config{Entries: 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(1, memory.VPN(i+1000))
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	t := New(Config{Entries: 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
	}
}

func BenchmarkInfiniteLookup(b *testing.B) {
	t := New(Config{})
	for i := 0; i < 10000; i++ {
		t.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(1, memory.VPN(i%10000))
	}
}

// shippedTLBs are the finite geometries the simulator builds: the
// fully associative per-CU TLB and the baseline IOMMU TLB.
var shippedTLBs = []struct {
	name string
	cfg  Config
}{
	{"perCU-32-full", Config{Entries: 32}},
	{"IOMMU-512-8way", Config{Entries: 512, Assoc: 8}},
}

// BenchmarkShipped measures hits, misses and evicting inserts on the
// shipped geometries, with a clean epoch and after one InvalidateASID
// (another address space's entry retired, so the epoch carries a death
// mark and every liveness check takes its slow path).
func BenchmarkShipped(b *testing.B) {
	for _, g := range shippedTLBs {
		n := g.cfg.Entries
		for _, marked := range []bool{false, true} {
			epoch := "clean"
			if marked {
				epoch = "marked"
			}
			build := func() *TLB {
				t := New(g.cfg)
				if marked {
					t.Insert(2, 0, 0, memory.PermRead)
					t.InvalidateASID(2)
				}
				return t
			}
			b.Run(g.name+"/hit/"+epoch, func(b *testing.B) {
				t := build()
				for i := 0; i < n; i++ {
					t.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Lookup(1, memory.VPN(i%n))
				}
			})
			b.Run(g.name+"/miss/"+epoch, func(b *testing.B) {
				t := build()
				for i := 0; i < n; i++ {
					t.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Lookup(1, memory.VPN(n+i%n))
				}
			})
			b.Run(g.name+"/insert/"+epoch, func(b *testing.B) {
				t := build()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Insert(1, memory.VPN(i), memory.PPN(i), memory.PermRead)
				}
			})
		}
	}
}
