// Package stats provides the measurement machinery the evaluation needs:
// scalar counters, windowed interval samplers (the paper samples IOMMU TLB
// accesses in 1 microsecond windows), summary statistics, histograms, and
// CDFs (for the page-lifetime appendix figure).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Summary holds mean / standard deviation / min / max of a sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics over xs. An empty slice yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// IntervalSampler counts events in fixed-width cycle windows. Feed it event
// cycles in any order; Samples() returns events-per-cycle for every window
// from cycle 0 through the last window that saw an event (or through an
// explicit Extend horizon), including empty windows, matching how the paper
// reports per-microsecond access rates. Counts live in a dense slice
// indexed by window, so Record is O(1) and the series is one pass.
type IntervalSampler struct {
	window  uint64
	counts  []uint64 // events per window, up to the last window recorded
	total   uint64
	horizon uint64 // max cycle observed
}

// NewIntervalSampler creates a sampler with the given window width in
// cycles. Width must be > 0.
func NewIntervalSampler(window uint64) *IntervalSampler {
	if window == 0 {
		panic("stats: zero sampler window")
	}
	return &IntervalSampler{window: window}
}

// Reset drops every recorded event and the horizon, keeping the window
// storage.
func (s *IntervalSampler) Reset() {
	s.counts = s.counts[:0]
	s.total, s.horizon = 0, 0
}

// Record counts one event at the given cycle.
func (s *IntervalSampler) Record(cycle uint64) {
	w := cycle / s.window
	for uint64(len(s.counts)) <= w {
		s.counts = append(s.counts, 0)
	}
	s.counts[w]++
	s.total++
	if cycle > s.horizon {
		s.horizon = cycle
	}
}

// Extend widens the observation horizon to cover cycle (so trailing empty
// windows are included in Samples).
func (s *IntervalSampler) Extend(cycle uint64) {
	if cycle > s.horizon {
		s.horizon = cycle
	}
}

// Total returns the total number of recorded events.
func (s *IntervalSampler) Total() uint64 { return s.total }

// windows returns the number of windows in [0, horizon], or 0 before the
// first Record or Extend past cycle 0.
func (s *IntervalSampler) windows() uint64 {
	if s.horizon == 0 && len(s.counts) == 0 {
		return 0
	}
	return s.horizon/s.window + 1
}

// Samples returns the per-window event rate (events per cycle) for every
// window in [0, horizon].
func (s *IntervalSampler) Samples() []float64 {
	n := s.windows()
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for w, c := range s.counts {
		out[w] = float64(c) / float64(s.window)
	}
	return out
}

// Mean returns the mean per-window rate without building the series: the
// same sum, in the same order, as Summarize(Samples()).Mean (empty windows
// add +0, which leaves the sum unchanged), so the two are bit-equal.
func (s *IntervalSampler) Mean() float64 {
	n := s.windows()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.counts {
		sum += float64(c) / float64(s.window)
	}
	return sum / float64(n)
}

// FractionAbove returns the fraction of xs that exceed limit (0 for an
// empty slice): for a sampler's series, the share of windows whose rate
// exceeds limit.
func FractionAbove(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDF is an empirical cumulative distribution over recorded values.
type CDF struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (c *CDF) Add(x float64) {
	c.xs = append(c.xs, x)
	c.sorted = false
}

// N returns the number of observations.
func (c *CDF) N() int { return len(c.xs) }

// Reset drops every observation, keeping the storage for reuse.
func (c *CDF) Reset() {
	c.xs = c.xs[:0]
	c.sorted = false
}

// Values returns the recorded observations. The order is unspecified (a
// query may have sorted them); At and Quantile depend only on the
// multiset, so serializing Values and rebuilding with CDFOf yields an
// equivalent CDF. The slice aliases the CDF's storage — don't mutate it.
func (c *CDF) Values() []float64 { return c.xs }

// CDFOf builds a CDF over the given observations, taking ownership of the
// slice. It is the decoding counterpart of Values.
func CDFOf(xs []float64) CDF { return CDF{xs: xs} }

// MarshalJSON encodes the CDF as its observation list, Values as
// recorded: null when nil, [] when empty. A value receiver, so a CDF
// reached through a non-addressable value encodes the same way.
func (c CDF) MarshalJSON() ([]byte, error) { return json.Marshal(c.xs) }

// UnmarshalJSON rebuilds a CDF from the list MarshalJSON wrote, with
// CDFOf.
func (c *CDF) UnmarshalJSON(b []byte) error {
	var xs []float64
	if err := json.Unmarshal(b, &xs); err != nil {
		return err
	}
	*c = CDFOf(xs)
	return nil
}

func (c *CDF) sortIfNeeded() {
	if !c.sorted {
		sort.Float64s(c.xs)
		c.sorted = true
	}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	c.sortIfNeeded()
	i := sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.xs))
}

// Quantile returns the q-th quantile (q in [0,1]).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	c.sortIfNeeded()
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[len(c.xs)-1]
	}
	i := int(q * float64(len(c.xs)-1))
	return c.xs[i]
}

// Histogram counts values in fixed-width buckets starting at 0. With width
// 1 and whole-number observations it is an exact counting histogram: every
// bucket holds one value, so Quantile returns exactly the element a sorted
// array of the observations would, in O(buckets) rather than a sort.
type Histogram struct {
	Width   float64
	Buckets []uint64
	Count   uint64
}

// NewHistogram creates a histogram with bucket width w (> 0).
func NewHistogram(w float64) *Histogram {
	if w <= 0 {
		panic("stats: non-positive histogram width")
	}
	return &Histogram{Width: w}
}

// Reset drops every observation, keeping the bucket storage.
func (h *Histogram) Reset() {
	h.Buckets = h.Buckets[:0]
	h.Count = 0
}

// Add records one observation (negative values clamp to bucket 0).
func (h *Histogram) Add(x float64) {
	b := 0
	if x > 0 {
		b = int(x / h.Width)
	}
	for len(h.Buckets) <= b {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[b]++
	h.Count++
}

// Quantile returns the q-th quantile under CDF.Quantile's rank rule: the
// element of rank int(q*(n-1)) in sorted order, with q <= 0 giving the
// minimum and q >= 1 the maximum (0 when empty). An observation reads back
// as its bucket's lower bound, so the result equals CDF.Quantile's when
// every observation is a non-negative whole multiple of Width.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	var rank uint64 // q <= 0: the minimum
	switch {
	case q <= 0:
	case q >= 1:
		rank = h.Count - 1
	default:
		rank = uint64(int(q * float64(h.Count-1)))
	}
	var seen uint64
	for b, c := range h.Buckets {
		seen += c
		if seen > rank {
			return float64(b) * h.Width
		}
	}
	panic("stats: histogram bucket counts disagree with Count")
}
