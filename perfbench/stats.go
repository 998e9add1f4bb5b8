package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, not a tail.
const minBeyond = 10

// Percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method, and the number of samples strictly beyond that
// rank. xs need not be sorted; it is not modified.
func Percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// Median is the 50th percentile by linear interpolation (the
// convention of Python's statistics.median), 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), which is how the
// benchmark's spread is judged.
func Quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1.
		n := len(s)
		pos := float64(j*(n+1)) / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// Spread is the interquartile distance as a share of the median.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / m
}
