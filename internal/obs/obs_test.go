package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"vcache/internal/stats"
)

func TestRegistryCounterGaugeSnapshot(t *testing.T) {
	r := NewRegistry()
	var hits, misses uint64
	peak := 3
	r.Counter("l1.cu0.hits", &hits)
	r.Counter("l1.cu0.misses", &misses)
	r.IntGauge("l2.page_peak", &peak)
	r.Gauge("l1.cu0.hit_ratio", func() float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})

	hits, misses = 30, 10
	if v, ok := r.Value("l1.cu0.hits"); !ok || v != 30 {
		t.Fatalf("Value(hits) = %v, %v", v, ok)
	}
	if v, ok := r.Value("l1.cu0.hit_ratio"); !ok || v != 0.75 {
		t.Fatalf("Value(hit_ratio) = %v, %v", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value of unregistered metric reported ok")
	}

	s := r.Snapshot(1234)
	if s.Cycle != 1234 || len(s.Names) != r.Len() {
		t.Fatalf("snapshot cycle=%d names=%d", s.Cycle, len(s.Names))
	}
	if !strings.HasPrefix(s.Names[0], "l1.") {
		t.Fatalf("names not sorted: %v", s.Names)
	}
	for i := 1; i < len(s.Names); i++ {
		if s.Names[i-1] >= s.Names[i] {
			t.Fatalf("names not sorted at %d: %v", i, s.Names)
		}
	}
	if v, ok := s.Value("l2.page_peak"); !ok || v != 3 {
		t.Fatalf("snapshot Value(page_peak) = %v, %v", v, ok)
	}

	// Counter mutations after the snapshot must not affect it.
	hits = 99
	if v, _ := s.Value("l1.cu0.hits"); v != 30 {
		t.Fatalf("snapshot not a copy: %v", v)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	var c uint64
	r.Counter("x", &c)
	r.Counter("x", &c)
}

func TestScopePrefixes(t *testing.T) {
	r := NewRegistry()
	var c uint64
	sc := r.Scope("iommu").Scope("tlb")
	sc.Counter("hits", &c)
	c = 7
	if v, ok := r.Value("iommu.tlb.hits"); !ok || v != 7 {
		t.Fatalf("scoped metric = %v, %v", v, ok)
	}
}

func TestRegistrySampler(t *testing.T) {
	r := NewRegistry()
	s := stats.NewIntervalSampler(100)
	r.Sampler("iommu.rate", s)
	s.Record(5)
	s.Record(7)
	s.Record(150)
	if v, ok := r.Value("iommu.rate.total"); !ok || v != 3 {
		t.Fatalf("sampler total = %v, %v", v, ok)
	}
	if v, ok := r.Value("iommu.rate.mean"); !ok || v <= 0 {
		t.Fatalf("sampler mean = %v, %v", v, ok)
	}
}

func TestSnapshotSum(t *testing.T) {
	r := NewRegistry()
	var a, b, other uint64 = 3, 4, 100
	r.Counter("l1.cu0.read_hits", &a)
	r.Counter("l1.cu1.read_hits", &b)
	r.Counter("l1.cu0.read_misses", &other)
	s := r.Snapshot(0)
	if got := s.Sum("l1.", ".read_hits"); got != 7 {
		t.Fatalf("Sum = %v, want 7", got)
	}
}

func TestSnapshotJSONL(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 42
	r.Counter("dram.reads", &c)
	var sb strings.Builder
	if err := r.Snapshot(9).WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cycle   uint64             `json:"cycle"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSONL %q: %v", sb.String(), err)
	}
	if doc.Cycle != 9 || doc.Metrics["dram.reads"] != 42 {
		t.Fatalf("decoded %+v", doc)
	}

	rec := r.Snapshot(9).AppendRecord(nil, "bfs", "vc-opt")
	var labeled struct {
		Workload, Design string
		Snapshot         struct{ Cycle uint64 }
	}
	if err := json.Unmarshal(rec, &labeled); err != nil || !strings.HasSuffix(string(rec), "}\n") ||
		labeled.Workload != "bfs" || labeled.Design != "vc-opt" || labeled.Snapshot.Cycle != 9 {
		t.Fatalf("labeled record %q decoded %+v (%v)", rec, labeled, err)
	}
}

// A nil emitter must be free: it is the always-on disabled path inside
// component hot loops (TLB lookups, IOMMU requests).
func TestNilEmitterZeroAlloc(t *testing.T) {
	var e *Emitter
	if n := testing.AllocsPerRun(1000, func() { e.Emit("miss", 42) }); n != 0 {
		t.Fatalf("nil Emitter.Emit: %v allocs/op, want 0", n)
	}
	if e.Enabled() {
		t.Fatal("nil emitter reports enabled")
	}
}

func TestEmitterStamps(t *testing.T) {
	var buf Buffer
	cycle := uint64(77)
	e := NewEmitter(&buf, "iommu", func() uint64 { return cycle })
	e.Emit("enqueue", 5)
	cycle = 99
	e.Emit("dequeue", 5)
	if len(buf.Events) != 2 {
		t.Fatalf("events %v", buf.Events)
	}
	want := Event{Cycle: 77, Comp: "iommu", Name: "enqueue", Arg: 5}
	if buf.Events[0] != want {
		t.Fatalf("event %+v, want %+v", buf.Events[0], want)
	}
	if buf.Events[1].Cycle != 99 {
		t.Fatalf("second event not restamped: %+v", buf.Events[1])
	}
}

func TestTraceWriterProducesValidChromeTrace(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	p := tw.Process("pagerank/VC With OPT")
	p.Emit(Event{Cycle: 10, Comp: "iommu", Name: "enqueue", Arg: 1})
	p.Emit(Event{Cycle: 12, Comp: "ptw", Name: "walk.start", Arg: 1})
	p.Emit(Event{Cycle: 40, Comp: "iommu", Name: "dequeue", Arg: 1})
	q := tw.Process("pagerank/Baseline 512")
	q.Emit(Event{Cycle: 11, Comp: "tlb.cu3", Name: "miss", Arg: 9})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var records []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &records); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, sb.String())
	}
	// 2 process_name + 3 thread_name metadata + 4 events.
	if len(records) != 9 {
		t.Fatalf("got %d records, want 9", len(records))
	}
	var events, metas int
	for _, rec := range records {
		switch rec["ph"] {
		case "M":
			metas++
		case "i":
			events++
			if rec["ts"] == nil || rec["cat"] == nil {
				t.Fatalf("event missing ts/cat: %v", rec)
			}
		default:
			t.Fatalf("unexpected phase in %v", rec)
		}
	}
	if events != 4 || metas != 5 {
		t.Fatalf("events=%d metas=%d", events, metas)
	}
	// Distinct processes keep distinct pids.
	if sb.String() == "" || !strings.Contains(sb.String(), `"pid":1`) {
		t.Fatal("second process did not get pid 1")
	}
}
