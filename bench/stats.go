package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
// It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the figure is one or two outliers, not a tail.
const minBeyond = 10

// samplesBeyond counts the samples strictly above the p-th percentile's rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// hasTail reports whether n samples leave at least minBeyond beyond the p-th
// percentile.
func hasTail(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

// highestTail picks the highest candidate percentile with at least minBeyond
// samples beyond it, or ok=false when even the lowest candidate has too few.
func highestTail(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if hasTail(n, c) {
			return c, true
		}
	}
	return 0, false
}
