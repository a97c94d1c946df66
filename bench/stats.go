package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tail returns the highest of p99 / p95 / p90 that still has at least ten
// samples beyond it; below 100 samples none qualifies and the maximum is
// returned.
func tail(sorted []float64) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(sorted))*(1-q) >= 10 {
			return quantile(sorted, q)
		}
	}
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[len(sorted)-1]
}

// durs converts durations to float64 in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func medianDur(ds []time.Duration, unit time.Duration) float64 { return median(durs(ds, unit)) }

// orZero maps the NaN of an empty sample to 0: a per-layer metric that
// was not measured reads as nothing spent.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
