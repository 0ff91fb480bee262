package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, ok := percentile(xs, 99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples reported with nine samples beyond it")
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Error("p50 of 19 samples reported with nine samples beyond it")
	}
	if v, ok := percentile(xs[:20], 50); v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %v, %v; want 10 with ten beyond", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLogLogSlope(t *testing.T) {
	xs := []float64{800, 1600, 3200}
	quadratic := []float64{1, 4, 16}
	if got := logLogSlope(xs, quadratic); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope of a quadratic = %v, want 2", got)
	}
	if got := logLogSlope(xs, []float64{5, 5, 5}); got != 0 {
		t.Errorf("slope of a constant = %v, want 0", got)
	}
	if got := logLogSlope(xs[:1], quadratic[:1]); got != 0 {
		t.Errorf("slope of one point = %v, want 0", got)
	}
}
