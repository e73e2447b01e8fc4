package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail drawn from fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// samples is one latency (or other) series, in microseconds unless the
// metric says otherwise.
type samples []float64

// percentile returns the nearest-rank p-th percentile (0 < p < 1). It
// refuses when fewer than minBeyond samples lie beyond the rank, so p50
// needs 20 samples and p99 needs 1000.
func (s samples) percentile(p float64) (float64, error) {
	n := len(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// mean returns the arithmetic mean, or an error for an empty series.
func (s samples) mean() (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("mean of no samples")
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s)), nil
}

// median is the middle value (the mean of the middle two for an even
// count) — used for repeated set-up timings, where there are too few
// samples for percentile's tail rule.
func median(xs []float64) float64 {
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

// ratio is num/den, refusing an empty base so every ratio states one.
func ratio(num, den int) (float64, error) {
	if den <= 0 {
		return 0, fmt.Errorf("ratio %d/%d has no base", num, den)
	}
	return float64(num) / float64(den), nil
}
