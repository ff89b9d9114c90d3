package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// With fewer, the percentile is a statement about a handful of outliers
// and is refused rather than printed.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and the
// number of samples above it. ok is false when fewer than minBeyond
// samples lie beyond the rank, in which case no value is reported.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, false
	}
	s := sorted(xs)
	return s[rank-1], beyond, true
}

// median returns the median of xs (the mean of the middle two for even
// lengths). It summarizes repetitions of a run, where the sample count
// is small and printed beside the value.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// largest returns the largest element of xs, or 0 for none.
func largest(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
