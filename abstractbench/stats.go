package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. sorted must be ascending; an empty slice gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// mean returns the arithmetic mean of xs (0 when empty).
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

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// spreads printed here are the ones the acceptance rule computes. Fewer
// than two samples give the sample itself for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Rank i*(n+1)/4 (1-based), interpolated between its neighbours;
		// clamped like Python, which extrapolates at the ends.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds with full precision.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp divides a count by the committed operations (0 when none committed).
func perOp(count float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return count / float64(ops)
}
