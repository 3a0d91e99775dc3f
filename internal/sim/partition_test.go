package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// pnode is a self-scheduling event source for one partition: every local
// event logs (cycle, arg), schedules a follow-up at a pseudo-random small
// delay, and sometimes posts a cross-partition message to a random peer.
// All randomness is drawn from a per-node deterministic stream consumed
// in the node's own execution order, so the workload is a pure function
// of the seed — any divergence between worker counts shows up as a log
// mismatch.
type pnode struct {
	p         *Partitioned
	id        int
	peers     []*pnode
	rng       *rand.Rand
	remaining int
	log       []uint64
}

const crossArg = 1 << 32 // marks events delivered via the mailbox

func (n *pnode) Handle(arg uint64) {
	e := n.p.Engine(n.id)
	n.log = append(n.log, e.Now()<<40|arg)
	if arg&crossArg != 0 {
		return // cross deliveries log but do not regenerate
	}
	if n.remaining == 0 {
		return
	}
	n.remaining--
	r := n.rng.Uint64()
	e.ScheduleEvent(r%7, n, (arg+1)&0xffff)
	if r%3 == 0 {
		dst := n.peers[int(r>>8)%len(n.peers)]
		delay := n.p.Lookahead() + (r>>16)%32
		n.p.SendEvent(n.id, dst.id, delay, dst, crossArg|(arg+1)&0xffff)
	}
}

// runRandom executes the seeded random workload over parts partitions
// with the given worker count and returns the per-partition event logs.
func runRandom(seed int64, parts, workers int, events int) [][]uint64 {
	engines := make([]*Engine, parts)
	for i := range engines {
		engines[i] = New()
	}
	p := NewPartitioned(engines, 10, workers)
	nodes := make([]*pnode, parts)
	for i := range nodes {
		nodes[i] = &pnode{p: p, id: i, rng: rand.New(rand.NewSource(seed + int64(i))), remaining: events}
	}
	for i, n := range nodes {
		n.peers = append(n.peers, nodes[:i]...)
		n.peers = append(n.peers, nodes[i+1:]...)
		engines[i].ScheduleEvent(uint64(i%3), n, 0)
	}
	p.Run(nil)
	logs := make([][]uint64, parts)
	for i, n := range nodes {
		logs[i] = n.log
	}
	return logs
}

// TestPartitionedDeterministicAcrossWorkers: the partitioned schedule is
// byte-identical at every worker count, including the serial (1-worker)
// path and worker counts above the partition count.
func TestPartitionedDeterministicAcrossWorkers(t *testing.T) {
	for _, parts := range []int{2, 5, 9} {
		want := runRandom(42, parts, 1, 400)
		for _, workers := range []int{2, 3, 4, runtime.NumCPU()} {
			got := runRandom(42, parts, workers, 400)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("parts=%d: %d-worker run diverged from serial", parts, workers)
			}
		}
	}
}

// TestPartitionedWindowAccounting checks the observability counters: at
// least one window per run, and every cross send counted exactly once.
func TestPartitionedWindowAccounting(t *testing.T) {
	engines := []*Engine{New(), New()}
	p := NewPartitioned(engines, 10, 1)
	delivered := 0
	engines[0].Schedule(0, func() {
		p.SendEvent(0, 1, 10, Func(func() { delivered++ }), 0)
		p.SendEvent(0, 1, 15, Func(func() { delivered++ }), 0)
	})
	p.Run(nil)
	if delivered != 2 || p.Crossings() != 2 {
		t.Fatalf("delivered %d, crossings %d (want 2, 2)", delivered, p.Crossings())
	}
	if p.Windows() == 0 {
		t.Fatal("no windows executed")
	}
	if engines[1].Now() < 15 {
		t.Fatalf("dst engine stopped at %d, want >= 15", engines[1].Now())
	}
}

// TestPartitionedOnWindowStops: a false return from onWindow halts the
// run at that barrier without deadlocking any worker.
func TestPartitionedOnWindowStops(t *testing.T) {
	for _, workers := range []int{1, 4} {
		engines := make([]*Engine, 4)
		for i := range engines {
			engines[i] = New()
		}
		p := NewPartitioned(engines, 10, workers)
		var tick func()
		fired := 0
		tick = func() { fired++; engines[0].Schedule(5, tick) }
		engines[0].Schedule(0, tick)
		windows := 0
		p.Run(func(uint64) bool { windows++; return windows < 3 })
		if windows != 3 {
			t.Fatalf("workers=%d: onWindow ran %d times, want 3", workers, windows)
		}
	}
}

// TestPartitionedMailboxHammer floods the mailboxes from every partition
// under full parallelism; run with -race it doubles as the data-race
// check on the window barrier and outbox exchange.
func TestPartitionedMailboxHammer(t *testing.T) {
	parts := runtime.NumCPU() + 1
	if parts < 5 {
		parts = 5
	}
	want := runRandom(7, parts, 1, 2000)
	got := runRandom(7, parts, runtime.NumCPU(), 2000)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("hammer run diverged from serial")
	}
}

// TestPartitionedWorkerPanicPropagates: a panic inside a worker-owned
// partition surfaces from Run instead of deadlocking the barrier.
func TestPartitionedWorkerPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 3} {
		engines := []*Engine{New(), New(), New()}
		p := NewPartitioned(engines, 10, workers)
		engines[2].Schedule(4, func() { panic("boom") })
		var tick func()
		tick = func() { engines[0].Schedule(1, tick) }
		engines[0].Schedule(0, tick)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			p.Run(func(limit uint64) bool { return limit < 1000 })
		}()
	}
}

// TestPartitionedRerun: one runner drives several runs back to back, each
// at its own worker count, and every run resumes from the clocks the
// previous one left behind.
func TestPartitionedRerun(t *testing.T) {
	engines := []*Engine{New(), New(), New()}
	p := NewPartitioned(engines, 10, 1)
	var arrivals []uint64
	var windows uint64
	for _, workers := range []int{1, 3, 2} {
		p.SetWorkers(workers)
		start := engines[0].Now()
		engines[0].Schedule(0, func() {
			p.SendEvent(0, 2, 10, Func(func() { arrivals = append(arrivals, engines[2].Now()) }), 0)
		})
		p.Run(nil)
		if n := len(arrivals); n == 0 || arrivals[n-1] != start+10 {
			t.Fatalf("workers=%d: arrivals %v, want last at %d", workers, arrivals, start+10)
		}
		if p.Windows() <= windows {
			t.Fatalf("workers=%d: window count did not accumulate", workers)
		}
		windows = p.Windows()
	}
	if p.Crossings() != 3 {
		t.Fatalf("crossings = %d, want 3", p.Crossings())
	}
}
