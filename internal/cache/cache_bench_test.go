package cache

import (
	"testing"

	"vcache/internal/memory"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 16, Policy: WriteBack})
	for i := 0; i < 1024; i++ {
		c.Fill(uint64(i*128), memory.PermRead, 1, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%1024)*128, false)
	}
}

func BenchmarkAccessMiss(b *testing.B) {
	c := New(Config{SizeBytes: 32 * 1024, LineBytes: 128, Assoc: 8, Policy: WriteThroughNoAllocate})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*4096, false)
	}
}

func BenchmarkFillWithEviction(b *testing.B) {
	c := New(Config{SizeBytes: 32 * 1024, LineBytes: 128, Assoc: 8, Policy: WriteBack})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*128, memory.PermRead, 1, false)
	}
}

// BenchmarkInvalidatePage measures one resident-page invalidation and
// then absent-page probes (the page is gone after the first iteration) —
// the same shape the set-scanning implementation was measured with
// (~20.5µs/op on this 2MB/16-way geometry; the per-line probe path is
// ~0.5µs).
func BenchmarkInvalidatePage(b *testing.B) {
	c := New(Config{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 16, Policy: WriteBack})
	for i := 0; i < memory.LinesPerPage; i++ {
		c.Fill(uint64(i*128), memory.PermRead, 1, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InvalidatePage(0)
	}
}

// shippedCaches are the geometries the simulator builds: the shared L2,
// the per-CU L1 and the page-walk cache.
var shippedCaches = []struct {
	name string
	cfg  Config
}{
	{"L2-2MB-16way", Config{SizeBytes: 2 << 20, LineBytes: 128, Assoc: 16, Policy: WriteBack}},
	{"L1-32KB-8way", Config{SizeBytes: 32 * 1024, LineBytes: 128, Assoc: 8, Policy: WriteThroughNoAllocate}},
	{"PWC-8KB-8way", Config{SizeBytes: 8 * 1024, LineBytes: 64, Assoc: 8, Policy: WriteBack}},
}

// shippedCache builds cfg's cache; with marked, one line of another
// address space was filled and retired by InvalidateASID first, so the
// epoch carries a death mark and every liveness check takes its slow path.
func shippedCache(cfg Config, marked bool) *Cache {
	c := New(cfg)
	if marked {
		c.Fill(0, memory.PermRead, 2, false)
		c.InvalidateASID(2)
	}
	return c
}

// BenchmarkShipped measures hits, misses and evicting fills on the shipped
// geometries, with a clean epoch and after one InvalidateASID.
func BenchmarkShipped(b *testing.B) {
	for _, g := range shippedCaches {
		lines := g.cfg.Lines()
		step := uint64(g.cfg.LineBytes)
		for _, marked := range []bool{false, true} {
			epoch := "clean"
			if marked {
				epoch = "marked"
			}
			b.Run(g.name+"/hit/"+epoch, func(b *testing.B) {
				c := shippedCache(g.cfg, marked)
				for i := 0; i < lines; i++ {
					c.Fill(uint64(i)*step, memory.PermRead, 1, false)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Access(uint64(i%lines)*step, false)
				}
			})
			b.Run(g.name+"/miss/"+epoch, func(b *testing.B) {
				c := shippedCache(g.cfg, marked)
				for i := 0; i < lines; i++ {
					c.Fill(uint64(i)*step, memory.PermRead, 1, false)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Access(uint64(lines+i%lines)*step, false)
				}
			})
			b.Run(g.name+"/fill/"+epoch, func(b *testing.B) {
				c := shippedCache(g.cfg, marked)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Fill(uint64(i)*step, memory.PermRead, 1, false)
				}
			})
		}
	}
}
