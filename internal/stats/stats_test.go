package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !almostEqual(s.Mean, 2.5) || !almostEqual(s.Min, 1) || !almostEqual(s.Max, 4) {
		t.Fatalf("summary = %+v", s)
	}
	// Population stddev of {1,2,3,4} = sqrt(1.25).
	if !almostEqual(s.StdDev, math.Sqrt(1.25)) {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestIntervalSampler(t *testing.T) {
	s := NewIntervalSampler(100)
	for i := 0; i < 50; i++ {
		s.Record(uint64(i)) // 50 events in window 0
	}
	s.Record(250) // 1 event in window 2
	xs := s.Samples()
	if len(xs) != 3 {
		t.Fatalf("windows = %d, want 3", len(xs))
	}
	if !almostEqual(xs[0], 0.5) || !almostEqual(xs[1], 0) || !almostEqual(xs[2], 0.01) {
		t.Fatalf("samples = %v", xs)
	}
	if s.Total() != 51 {
		t.Fatalf("total = %d", s.Total())
	}
	s.Extend(999)
	if len(s.Samples()) != 10 {
		t.Fatalf("windows after extend = %d, want 10", len(s.Samples()))
	}
	if got := FractionAbove(s.Samples(), 0.2); !almostEqual(got, 0.1) {
		t.Fatalf("FractionAbove = %v, want 0.1", got)
	}
}

func TestIntervalSamplerEmpty(t *testing.T) {
	s := NewIntervalSampler(700)
	if s.Samples() != nil {
		t.Fatal("empty sampler returned windows")
	}
	if s.Mean() != 0 || s.Total() != 0 || FractionAbove(s.Samples(), 0) != 0 {
		t.Fatal("empty sampler has a non-zero mean, total or fraction")
	}
}

func TestCDF(t *testing.T) {
	var c CDF
	for _, x := range []float64{10, 20, 30, 40, 50} {
		c.Add(x)
	}
	if !almostEqual(c.At(30), 0.6) {
		t.Fatalf("At(30) = %v, want 0.6", c.At(30))
	}
	if !almostEqual(c.At(5), 0) || !almostEqual(c.At(50), 1) {
		t.Fatalf("tail values wrong: %v %v", c.At(5), c.At(50))
	}
	if q := c.Quantile(0.5); q != 30 {
		t.Fatalf("median = %v, want 30", q)
	}
	if c.Quantile(0) != 10 || c.Quantile(1) != 50 {
		t.Fatal("extreme quantiles wrong")
	}
}

func TestCDFInterleavedAddQuery(t *testing.T) {
	var c CDF
	c.Add(5)
	_ = c.At(5)
	c.Add(1) // must re-sort
	if !almostEqual(c.At(1), 0.5) {
		t.Fatalf("At(1) = %v after interleaved add", c.At(1))
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	h.Add(5)
	h.Add(15)
	h.Add(15)
	h.Add(-3) // clamps to bucket 0
	if h.Count != 4 || h.Buckets[0] != 2 || h.Buckets[1] != 2 {
		t.Fatalf("histogram = %+v", h)
	}
}

// Property: CDF.At is monotonic nondecreasing and bounded in [0,1].
func TestCDFMonotonicProperty(t *testing.T) {
	f := func(xs []float64, probes []float64) bool {
		var c CDF
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			c.Add(x)
		}
		prevX, prevP := math.Inf(-1), 0.0
		for _, p := range probes {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			if p < prevX {
				continue
			}
			v := c.At(p)
			if v < 0 || v > 1 {
				return false
			}
			if v < prevP {
				return false
			}
			prevX, prevP = p, v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampler total equals number of recorded events and window rates
// sum to total/window.
func TestSamplerConservationProperty(t *testing.T) {
	f := func(cycles []uint16) bool {
		s := NewIntervalSampler(64)
		for _, c := range cycles {
			s.Record(uint64(c))
		}
		if s.Total() != uint64(len(cycles)) {
			return false
		}
		var sum float64
		for _, x := range s.Samples() {
			sum += x * 64
		}
		return math.Abs(sum-float64(len(cycles))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mapSampler is the reference model of IntervalSampler: the map-keyed
// implementation the dense slice replaced.
type mapSampler struct {
	window  uint64
	counts  map[uint64]uint64
	horizon uint64
}

func (s *mapSampler) record(cycle uint64) {
	s.counts[cycle/s.window]++
	if cycle > s.horizon {
		s.horizon = cycle
	}
}

func (s *mapSampler) extend(cycle uint64) {
	if cycle > s.horizon {
		s.horizon = cycle
	}
}

func (s *mapSampler) samples() []float64 {
	if s.horizon == 0 && len(s.counts) == 0 {
		return nil
	}
	n := s.horizon/s.window + 1
	out := make([]float64, n)
	for w, c := range s.counts {
		if w < n {
			out[w] = float64(c) / float64(s.window)
		}
	}
	return out
}

// TestSamplerMatchesMapReference drives the dense sampler and the map
// reference with the same out-of-order Record and Extend stream: the
// series (bit for bit, nil when empty) and the total must agree after
// every operation, from the empty sampler on, and Mean must be bit-equal
// to Summarize(Samples()).Mean.
func TestSamplerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		window := uint64(1 + rng.Intn(100))
		got := NewIntervalSampler(window)
		ref := &mapSampler{window: window, counts: map[uint64]uint64{}}
		var recorded uint64
		for op := 0; op < 200; op++ {
			cycle := uint64(rng.Intn(5000))
			switch rng.Intn(4) {
			case 0:
				got.Extend(cycle)
				ref.extend(cycle)
			case 1:
				got.Extend(0) // a no-op, also on an empty sampler
				ref.extend(0)
			default:
				got.Record(cycle)
				ref.record(cycle)
				recorded++
			}
			want := ref.samples()
			xs := got.Samples()
			if (xs == nil) != (want == nil) || !slices.Equal(xs, want) {
				t.Fatalf("trial %d op %d: samples %v, want %v", trial, op, xs, want)
			}
			if got.Total() != recorded {
				t.Fatalf("trial %d op %d: total %d, want %d", trial, op, got.Total(), recorded)
			}
			if m, w := got.Mean(), Summarize(want).Mean; math.Float64bits(m) != math.Float64bits(w) {
				t.Fatalf("trial %d op %d: mean %v, want %v", trial, op, m, w)
			}
		}
	}
}

// TestSamplerRecordAllocs pins the dense sampler's steady state: recording
// into windows that already exist allocates nothing.
func TestSamplerRecordAllocs(t *testing.T) {
	s := NewIntervalSampler(700)
	s.Record(700 * 1000)
	cycle := uint64(0)
	if n := testing.AllocsPerRun(1000, func() { s.Record(cycle); cycle += 13 }); n != 0 {
		t.Fatalf("Record: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { _ = s.Mean() }); n != 0 {
		t.Fatalf("Mean: %v allocs/op, want 0", n)
	}
}

// TestHistogramQuantileMatchesCDF checks the width-1 histogram against
// the sorting CDF on random integer multisets, at the quantiles Results
// reports, the extremes, out-of-range q and random q, including n = 0 and
// n = 1.
func TestHistogramQuantileMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := trial % 40
		if trial >= 200 {
			n = rng.Intn(5000)
		}
		maxV := 1 + rng.Intn(4000)
		h := NewHistogram(1)
		var c CDF
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(maxV))
			if rng.Intn(4) == 0 {
				v = float64(rng.Intn(3)) // ties at the bottom
			}
			h.Add(v)
			c.Add(v)
		}
		qs := []float64{0, 0.5, 0.95, 0.99, 1, -0.5, 1.5}
		for i := 0; i < 20; i++ {
			qs = append(qs, rng.Float64())
		}
		for _, q := range qs {
			if got, want := h.Quantile(q), c.Quantile(q); got != want {
				t.Fatalf("trial %d (n=%d): Quantile(%v) = %v, CDF says %v", trial, n, q, got, want)
			}
		}
		if h.Count != uint64(c.N()) {
			t.Fatalf("trial %d: count %d, want %d", trial, h.Count, c.N())
		}
	}
}

func TestCDFReset(t *testing.T) {
	var c CDF
	c.Add(3)
	c.Add(1)
	_ = c.Quantile(0.5)
	c.Reset()
	if c.N() != 0 || c.Quantile(0.5) != 0 {
		t.Fatalf("reset CDF holds %d observations", c.N())
	}
	c.Add(2)
	c.Add(1)
	if c.Quantile(0) != 1 || c.Quantile(1) != 2 {
		t.Fatal("reset CDF did not re-sort new observations")
	}
}
