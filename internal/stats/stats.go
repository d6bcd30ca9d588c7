// Package stats provides the small statistical helpers the experiment
// harness aggregates results with.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank
// on a copy of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}

// Cumulative returns the running sum of xs.
func Cumulative(xs []float64) []float64 {
	out := make([]float64, len(xs))
	s := 0.0
	for i, x := range xs {
		s += x
		out[i] = s
	}
	return out
}

// MeanAcross averages aligned series element-wise: rows[w][i] is workload
// w's value at position i. Ragged rows are tolerated by averaging only
// positions present in every row (the common prefix), so a longer later
// row can no longer index past the output.
func MeanAcross(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	n := len(rows[0])
	for _, r := range rows[1:] {
		if len(r) < n {
			n = len(r)
		}
	}
	out := make([]float64, n)
	for _, r := range rows {
		for i, v := range r[:n] {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(rows))
	}
	return out
}
