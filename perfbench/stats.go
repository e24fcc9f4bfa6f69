package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks; NaN for an empty input.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads computed here match the ones a
// Python reader computes from the same records. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const parts = 4
	cut := func(i int) float64 {
		// Clamp j to [1, n-1] before taking delta, as Python does; at
		// the edges delta falls outside [0, parts] and extrapolates.
		j := min(max(i*(n+1)/parts, 1), n-1)
		delta := i*(n+1) - j*parts
		return (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return cut(1), cut(2), cut(3)
}
