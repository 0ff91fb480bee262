package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie above a tail percentile
// before it is reported: a p99 over 300 samples is really the maximum.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. The median is always reported,
// together with its sample count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and whether at
// least minBeyond samples lie above it. Callers report the value only when
// the second result is true.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// logLogSlope is the least-squares slope of ln(y) against ln(x): the
// exponent k of a cost growing as x^k. Points with a non-positive
// coordinate are skipped; fewer than two points give 0.
func logLogSlope(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range lx {
		mx += lx[i]
		my += ly[i]
	}
	mx /= n
	my /= n
	var num, den float64
	for i := range lx {
		num += (lx[i] - mx) * (ly[i] - my)
		den += (lx[i] - mx) * (lx[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// perSecond is n per s seconds, or 0 when no time was spent.
func perSecond(n int, s float64) float64 {
	if s <= 0 {
		return 0
	}
	return float64(n) / s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
