package iommu

import (
	"testing"

	"vcache/internal/dram"
	"vcache/internal/fbt"
	"vcache/internal/memory"
	"vcache/internal/ptw"
	"vcache/internal/sim"
	"vcache/internal/tlb"
)

func setup(cfg Config) (*sim.Engine, *memory.PageTable, *IOMMU) {
	eng := sim.New()
	fa := memory.NewFrameAlloc(0x100)
	pt := memory.NewPageTable(fa)
	mem := dram.New(eng, dram.Config{Latency: 100, LinesPerCycle: 0})
	w := ptw.New(eng, cfg.Walker, pt, mem)
	return eng, pt, New(eng, cfg, w)
}

func TestTranslateHitAfterWalk(t *testing.T) {
	cfg := DefaultConfig()
	eng, pt, io := setup(cfg)
	pt.Map(5, 77, memory.PermRead)
	var r1, r2 Result
	var t1, t2 uint64
	io.Translate(1, 5, ClientFunc(func(r Result) {
		r1, t1 = r, eng.Now()
		io.Translate(1, 5, ClientFunc(func(r Result) { r2, t2 = r, eng.Now() }))
	}))
	eng.Run()
	if r1.Fault || r1.PTE.PPN != 77 || r2.Fault || r2.PTE.PPN != 77 {
		t.Fatalf("results = %+v %+v", r1, r2)
	}
	if t2-t1 != cfg.LookupLatency {
		t.Fatalf("TLB hit latency = %d, want %d", t2-t1, cfg.LookupLatency)
	}
	s := io.Stats()
	if s.TLBHits != 1 || s.TLBMisses != 1 || s.Walks != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSerializationAtPort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LookupsPerCycle = 1
	eng, pt, io := setup(cfg)
	pt.Map(9, 1, memory.PermRead)
	// Prime the TLB, then issue a burst of hits in one cycle.
	io.Translate(1, 9, ClientFunc(func(Result) {}))
	eng.Run()
	base := eng.Now()
	var finish []uint64
	for i := 0; i < 4; i++ {
		io.Translate(1, 9, ClientFunc(func(Result) { finish = append(finish, eng.Now()) }))
	}
	eng.Run()
	for i := 1; i < len(finish); i++ {
		if finish[i] != finish[i-1]+1 {
			t.Fatalf("finishes not serialized 1/cycle: %v", finish)
		}
	}
	if finish[0] != base+cfg.LookupLatency {
		t.Fatalf("first finish = %d, want %d", finish[0], base+cfg.LookupLatency)
	}
	if io.Stats().QueueDelay != 0+1+2+3 {
		t.Fatalf("QueueDelay = %d, want 6", io.Stats().QueueDelay)
	}
}

func TestUnlimitedBandwidthNoQueueing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LookupsPerCycle = 0
	eng, pt, io := setup(cfg)
	pt.Map(9, 1, memory.PermRead)
	io.Translate(1, 9, ClientFunc(func(Result) {}))
	eng.Run()
	n := 0
	for i := 0; i < 16; i++ {
		io.Translate(1, 9, ClientFunc(func(Result) { n++ }))
	}
	eng.Run()
	if io.Stats().QueueDelay != 0 {
		t.Fatalf("QueueDelay = %d with unlimited bandwidth", io.Stats().QueueDelay)
	}
	if n != 16 {
		t.Fatal("responses missing")
	}
}

func TestFBTAsSecondLevelTLB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLB = tlb.Config{Entries: 1} // force shared-TLB misses
	eng, pt, io := setup(cfg)
	pt.Map(5, 77, memory.PermRead)
	pt.Map(6, 78, memory.PermRead)
	f := fbt.New(fbt.DefaultConfig())
	f.Allocate(77, 1, 5, memory.PermRead, false)
	io.SecondLevel = f

	walkedBefore := io.Stats().Walks
	io.Translate(1, 6, ClientFunc(func(Result) {})) // evicts vpn5 from 1-entry TLB via insert
	eng.Run()
	if io.Stats().Walks != walkedBefore+1 {
		t.Fatal("vpn 6 should have walked (not in FBT)")
	}
	var r Result
	io.Translate(1, 5, ClientFunc(func(res Result) { r = res }))
	eng.Run()
	if r.Fault || r.PTE.PPN != 77 {
		t.Fatalf("result = %+v", r)
	}
	s := io.Stats()
	if s.FBTHits != 1 {
		t.Fatalf("FBT hits = %d, want 1", s.FBTHits)
	}
	if s.Walks != walkedBefore+1 {
		t.Fatal("FBT hit still walked the page table")
	}
}

func TestBankedPortsParallelWhenSpread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Banks = 4
	eng, pt, io := setup(cfg)
	// Four pages in four different banks (bank = (vpn>>6)%4).
	vpns := []memory.VPN{0 << 6, 1 << 6, 2 << 6, 3 << 6}
	for i, v := range vpns {
		pt.Map(v, memory.PPN(i+1), memory.PermRead)
		io.Translate(1, v, ClientFunc(func(Result) {}))
	}
	eng.Run()
	var finish []uint64
	for _, v := range vpns { // all TLB hits now, one per bank
		io.Translate(1, v, ClientFunc(func(Result) { finish = append(finish, eng.Now()) }))
	}
	eng.Run()
	for i := 1; i < len(finish); i++ {
		if finish[i] != finish[0] {
			t.Fatalf("bank-spread lookups serialized: %v", finish)
		}
	}
	if io.Stats().QueueDelay != 0 {
		t.Fatalf("QueueDelay = %d for conflict-free banked lookups", io.Stats().QueueDelay)
	}
}

func TestBankedPortsConflictOnClusteredPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Banks = 4
	eng, pt, io := setup(cfg)
	// Adjacent pages share high-order bits -> same bank -> serialized,
	// the paper's argument against banked shared TLBs.
	for i := 0; i < 4; i++ {
		pt.Map(memory.VPN(i), memory.PPN(i+1), memory.PermRead)
		io.Translate(1, memory.VPN(i), ClientFunc(func(Result) {}))
	}
	eng.Run()
	var finish []uint64
	for i := 0; i < 4; i++ {
		io.Translate(1, memory.VPN(i), ClientFunc(func(Result) { finish = append(finish, eng.Now()) }))
	}
	eng.Run()
	for i := 1; i < len(finish); i++ {
		if finish[i] != finish[i-1]+1 {
			t.Fatalf("clustered lookups not serialized: %v", finish)
		}
	}
	if io.Stats().QueueDelay == 0 {
		t.Fatal("no bank-conflict queueing recorded")
	}
}

func TestFault(t *testing.T) {
	eng, _, io := setup(DefaultConfig())
	var r Result
	io.Translate(1, 0xbad, ClientFunc(func(res Result) { r = res }))
	eng.Run()
	if !r.Fault {
		t.Fatal("translation of unmapped page did not fault")
	}
}

func TestShootdownInvalidatesSharedTLB(t *testing.T) {
	eng, pt, io := setup(DefaultConfig())
	pt.Map(5, 77, memory.PermRead)
	io.Translate(1, 5, ClientFunc(func(Result) {}))
	eng.Run()
	io.Shootdown(1, 5)
	io.Translate(1, 5, ClientFunc(func(Result) {}))
	eng.Run()
	if io.Stats().TLBHits != 0 {
		t.Fatalf("TLB hit after shootdown: %+v", io.Stats())
	}
}

func TestSamplerRecordsArrivals(t *testing.T) {
	cfg := DefaultConfig()
	eng, pt, io := setup(cfg)
	pt.Map(5, 77, memory.PermRead)
	for i := 0; i < 10; i++ {
		io.Translate(1, 5, ClientFunc(func(Result) {}))
	}
	eng.Run()
	io.ExtendSampling()
	if io.Sampler().Total() != 10 {
		t.Fatalf("sampled %d arrivals, want 10", io.Sampler().Total())
	}
}

// translateCount is a Client that counts completed translations.
type translateCount int

func (n *translateCount) Translated(Result) { *n++ }

// TestTranslateZeroAlloc pins steady-state Translate at 0 allocs/op:
// lookup records, merged-walk waiter lists and walk threads all recycle,
// so misses, merges and walks allocate nothing once warm.
func TestTranslateZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLB = tlb.Config{Entries: 1} // alternating pages always miss
	eng, pt, io := setup(cfg)
	pt.Map(5, 77, memory.PermRead)
	pt.Map(6, 78, memory.PermRead)
	var n translateCount
	op := func() {
		io.Translate(1, 5, &n)
		io.Translate(1, 5, &n) // merges behind the walk of page 5
		io.Translate(1, 6, &n)
		eng.Run()
	}
	// Warm up, long enough for the clock to lap the engine's calendar and
	// the node pool to reach the peak pending count.
	for i := 0; i < 100; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("steady-state Translate allocates %.1f/op, want 0", allocs)
	}
	if s := io.Stats(); n != translateCount(s.Requests) || s.Walks == 0 || s.MergedWalks == 0 {
		t.Fatalf("completed %d of %d translations; stats %+v", n, s.Requests, s)
	}
}
