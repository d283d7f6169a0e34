// Package stats provides the small descriptive statistics the harness
// reports: geometric and arithmetic means, and the error and rank
// correlation the explore model is judged by.
package stats

import (
	"math"
	"sort"
)

// GeoMean is the geometric mean (used for speedup summaries).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Mean is the arithmetic mean.
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

// MAPE is the mean absolute percentage error of predictions against
// measurements, in percent. Pairs whose measured value is zero are skipped
// (the ratio is undefined there); mismatched or empty inputs return NaN so a
// falsifiability gate comparing MAPE against a threshold fails loudly instead
// of passing on an empty holdout.
func MAPE(predicted, measured []float64) float64 {
	if len(predicted) != len(measured) || len(predicted) == 0 {
		return math.NaN()
	}
	var sum float64
	n := 0
	for i, m := range measured {
		if m == 0 {
			continue
		}
		sum += math.Abs((predicted[i] - m) / m)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n) * 100
}

// Spearman is the Spearman rank correlation between two paired samples, with
// average ranks for ties (the standard Pearson-on-ranks form, which stays
// correct under ties where the 6Σd² shortcut does not). Mismatched or
// too-short inputs, or a constant side (zero rank variance), return NaN.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	ra, rb := ranks(a), ranks(b)
	ma, mb := Mean(ra), Mean(rb)
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(va*vb)
}

// ranks assigns 1-based ranks with ties sharing their average rank.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, len(xs))
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && xs[idx[hi]] == xs[idx[lo]] {
			hi++
		}
		avg := float64(lo+hi+1) / 2 // 1-based average of ranks lo+1..hi
		for i := lo; i < hi; i++ {
			out[idx[i]] = avg
		}
		lo = hi
	}
	return out
}
