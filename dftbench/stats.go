package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: with fewer, the figure is set by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs (0 ≤ q ≤ 1), interpolated linearly
// between the closest ranks. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is the number of samples that lie strictly above the
// nearest-rank p-quantile of n samples: the rank is ceil(p·n), and the
// samples ranked after it are the ones beyond.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tail returns the nearest-rank p-quantile of xs for a tail percentile
// such as p = 0.99, and an error when fewer than minBeyond samples lie
// beyond it.
func tail(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if b := beyond(n, p); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, b, minBeyond)
	}
	s := sorted(xs)
	return s[int(math.Ceil(p*float64(n)))-1], nil
}
