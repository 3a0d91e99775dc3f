package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quantile to Python's
// statistics.quantiles(xs, n=4), the method the benchmark's spread check
// uses, including its extrapolation for very small samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 7, 2, 8, 6.5}, [3]float64{2, 6.5, 8}},
	}
	for _, c := range cases {
		for i, p := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(c.xs, p); math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, p, got, c.want[i])
			}
		}
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g, want 7", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

// TestTailPercentileLeavesTenBeyond checks the reporting rule: the highest
// percentile with at least ten samples beyond it.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}
