package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a percentile
// before the sample is allowed to report it.
const minBeyond = 10

// percentileIndex is the nearest-rank index of percentile p (0 < p <=
// 100) in a sorted sample of n values, and how many samples lie beyond
// that rank.
func percentileIndex(n int, p float64) (idx, beyond int) {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank - 1, n - rank
}

// supports reports whether a sample of n values has at least minBeyond
// samples beyond percentile p. The median of any non-empty sample is
// always reported.
func supports(n int, p float64) bool {
	if n == 0 {
		return false
	}
	if p <= 50 {
		return true
	}
	_, beyond := percentileIndex(n, p)
	return beyond >= minBeyond
}

// highestSupported returns the highest of the candidate percentiles
// that a sample of n values supports, or 0 when none is.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if p > best && supports(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of xs, or an error
// naming the sample count when the sample does not support it. xs is
// sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	if !supports(len(xs), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; the sample has %d values", p, minBeyond, len(xs))
	}
	sort.Float64s(xs)
	idx, _ := percentileIndex(len(xs), p)
	return xs[idx], nil
}

// median returns the median of xs (mean of the middle two for an even
// count), sorting xs in place; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a share of nothing is reported as
// none, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
