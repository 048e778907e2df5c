package main

import (
	"math"
	"sort"
)

// Quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples and how many samples lie strictly beyond that rank. A tail
// percentile is only worth reporting when beyond >= 10; callers print
// the count next to the value. An empty input yields (0, 0).
func Quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// Dist accumulates observations for percentile reporting.
type Dist struct {
	v      []float64
	sorted bool
}

// Add records one observation.
func (d *Dist) Add(x float64) {
	d.v = append(d.v, x)
	d.sorted = false
}

// N is the number of observations.
func (d *Dist) N() int { return len(d.v) }

// Q returns the nearest-rank q-quantile (0 when empty).
func (d *Dist) Q(q float64) float64 {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	v, _ := Quantile(d.v, q)
	return v
}

// Median of xs (0 when empty); xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
