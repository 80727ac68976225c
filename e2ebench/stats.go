package main

import (
	"math"
	"slices"
)

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs, or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4), the
// default). It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// quantile returns the q-quantile (0 < q ≤ 1) of xs by the nearest-rank
// method, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}
