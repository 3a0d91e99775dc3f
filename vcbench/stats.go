package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the "exclusive" method (the
// default of Python's statistics.quantiles): position p*(n+1) in the sorted
// values, interpolated linearly and extrapolated at the ends. Quartiles
// computed here therefore match the ones the benchmark's acceptance check
// computes. xs is not modified; an empty xs returns NaN.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// median is quantile(xs, 0.5): the middle value, or the mean of the two
// middle values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread returns the interquartile range of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(quantile(xs, 0.75)-quantile(xs, 0.25)) / math.Abs(m)
}

// tailPercentiles are the tail quantiles a latency may be reported at,
// highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailPercentile returns the highest of tailPercentiles that still leaves
// at least ten of n samples beyond it, and false when even the median does
// not.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}
