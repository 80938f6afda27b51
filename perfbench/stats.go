package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer is one slow sample, not a distribution.
const minBeyond = 10

// p90Samples is the smallest sample percentile accepts for a p90.
const p90Samples = 10 * minBeyond

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the rank, so p90
// needs at least 100 samples and p50 at least 20.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0,1)", q)
	}
	n := len(xs)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k], nil
}

// median summarises repeated measurements of one quantity (unit walls,
// set-up times); unlike percentile it reports a tail of nothing, so any
// non-empty sample will do.
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

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
