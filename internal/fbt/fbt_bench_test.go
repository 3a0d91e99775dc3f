package fbt

import (
	"testing"

	"vcache/internal/memory"
)

func warm(n int) *FBT {
	f := New(DefaultConfig())
	for i := 0; i < n; i++ {
		f.Allocate(memory.PPN(i), 1, memory.VPN(i+1000), memory.PermRead, false)
	}
	return f
}

func BenchmarkCheckLeading(b *testing.B) {
	f := warm(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := memory.PPN(i % 8192)
		f.Check(p, 1, memory.VPN(int(p)+1000), false)
	}
}

func BenchmarkCheckMiss(b *testing.B) {
	f := warm(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Check(memory.PPN(i%1024+1<<20), 1, memory.VPN(i), false)
	}
}

func BenchmarkTranslateVPN(b *testing.B) {
	f := warm(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TranslateVPN(1, memory.VPN(i%8192+1000))
	}
}

func BenchmarkSetClearLine(b *testing.B) {
	f := warm(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := memory.PPN(i % 1024)
		f.SetLine(p, i%32)
		f.ClearLine(1, memory.VPN(int(p)+1000), i%32)
	}
}

// BenchmarkShipped measures the BT and FT paths on the shipped 16K-entry,
// 8-way table half full, with a clean epoch and after one FlushASID
// (another address space's entry retired, so the epoch carries a death
// mark and every liveness check takes its slow path).
func BenchmarkShipped(b *testing.B) {
	for _, marked := range []bool{false, true} {
		epoch := "clean"
		if marked {
			epoch = "marked"
		}
		build := func() *FBT {
			f := New(DefaultConfig())
			if marked {
				f.Allocate(1<<30, 2, 1<<20, memory.PermRead, false)
				f.FlushASID(2)
			}
			for i := 0; i < 8192; i++ {
				f.Allocate(memory.PPN(i), 1, memory.VPN(i+1000), memory.PermRead, false)
			}
			return f
		}
		b.Run("check-leading/"+epoch, func(b *testing.B) {
			f := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := memory.PPN(i % 8192)
				f.Check(p, 1, memory.VPN(int(p)+1000), false)
			}
		})
		b.Run("check-miss/"+epoch, func(b *testing.B) {
			f := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Check(memory.PPN(i%8192+1<<20), 1, memory.VPN(i), false)
			}
		})
		b.Run("translate/"+epoch, func(b *testing.B) {
			f := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.TranslateVPN(1, memory.VPN(i%8192+1000))
			}
		})
		b.Run("allocate-evict/"+epoch, func(b *testing.B) {
			f := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := memory.PPN(8192 + i)
				f.Allocate(p, 1, memory.VPN(int(p)+1000), memory.PermRead, false)
			}
		})
	}
}
