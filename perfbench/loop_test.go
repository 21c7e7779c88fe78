package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The histogram's quantiles must agree with the exact nearest-rank
// quantiles of the same samples to within one bucket width (0.8%).
func TestHistQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, scale := range []float64{100, 6e3, 3e6, 40e6} {
		var h hist
		xs := make([]float64, 20000)
		for i := range xs {
			ns := math.Round(scale * math.Exp(rng.NormFloat64()))
			xs[i] = ns
			h.add(time.Duration(ns))
		}
		slices.Sort(xs)
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			want := xs[int(math.Ceil(q*float64(len(xs))))-1] / 1e6
			got := h.quantile(q)
			if math.Abs(got-want) > want/128+1e-6 {
				t.Errorf("scale %g q %g: histogram %g ms, exact %g ms", scale, q, got, want)
			}
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		low, width := histRange(i - 1)
		next, _ := histRange(i)
		if low+width != next {
			t.Fatalf("bucket %d ends at %g, bucket %d starts at %g", i-1, low+width, i, next)
		}
		if histBucket(uint64(next)) != i || histBucket(uint64(next)-1) != i-1 {
			t.Fatalf("value %g lands in bucket %d, want %d", next, histBucket(uint64(next)), i)
		}
	}
	var h hist
	h.add(time.Duration(1) << 50) // capped, not out of range
	if h.count() != 1 || h[histBuckets-1] != 1 {
		t.Fatalf("an over-range latency was not counted in the last bucket")
	}
}
