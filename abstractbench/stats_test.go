package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPercentile is the nearest-rank percentile by definition: the smallest
// sample with at least p% of the samples at or below it.
func refPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, v := range s {
		atOrBelow := 0
		for _, w := range s {
			if w <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p/100*float64(len(s)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			// Few distinct values, so ties are exercised too.
			xs[i] = float64(rng.Intn(50)) / 4
		}
		sorted := sortedCopy(xs)
		for _, p := range []float64{1, 10, 25, 50, 90, 99, 99.9, 100} {
			if got, want := percentile(sorted, p), refPercentile(xs, p); got != want {
				t.Fatalf("n=%d p=%v: percentile=%v, reference=%v", n, p, got, want)
			}
		}
	}
}

func TestMeanAndMedianMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		var sum float64
		for i := range xs {
			xs[i] = rng.Float64() * 100
			sum += xs[i]
		}
		if got, want := mean(xs), sum/float64(n); math.Abs(got-want) > 1e-9 {
			t.Fatalf("mean=%v, want %v", got, want)
		}
		s := sortedCopy(xs)
		want := s[n/2]
		if n%2 == 0 {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); got != want {
			t.Fatalf("median=%v, want %v", got, want)
		}
	}
	if mean(nil) != 0 || median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Fatal("empty input must give 0")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the rule the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 2, 8},
		{[]float64{3.5, 1.25, 9}, 1.25, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
