package iter

import "fmt"

// Histogram counts, for each bin in [0, n), how many elements of it fall in
// that bin. Out-of-range bins are dropped (tpacf relies on clamping done by
// its scoring function, so dropping keeps the skeleton total). Conceptually
// this converts the fused iterator to a collector whose worker mutates the
// bin array in place (paper §3.1 "Collectors"); the block engine inlines
// that worker into the block loop, so slice-backed pipelines update bins
// with no per-element calls at all.
func Histogram(n int, it Iter[int]) []int64 {
	if n < 0 {
		panic(fmt.Sprintf("iter: Histogram(%d)", n))
	}
	bins := make([]int64, n)
	HistogramInto(bins, it)
	return bins
}

// Bin is one weighted histogram update: add W to bin I.
type Bin[W Number] struct {
	I int
	W W
}

// WeightedHistogram accumulates, for each bin in [0, n), the total weight
// of updates targeting that bin. cutcp's floating-point histogram (paper
// §1, §4.5) is WeightedHistogram over grid-point potentials. Updates to
// out-of-range bins are dropped.
func WeightedHistogram[W Number](n int, it Iter[Bin[W]]) []W {
	if n < 0 {
		panic(fmt.Sprintf("iter: WeightedHistogram(%d)", n))
	}
	bins := make([]W, n)
	WeightedHistogramInto(bins, it)
	return bins
}

// HistogramInto adds it's counts into an existing bin array, enabling
// per-thread private histograms that are merged afterwards (the two-level
// reduction of paper §3.4). Nests recurse with one staging arena, block
// producers update bins from the driver's blocks, and indexers with no
// block path — partial ones included — are driven through At with the bin
// update inline, so a short inner loop costs no collector, no closure and
// one indirect call per element.
func HistogramInto(bins []int64, it Iter[int]) {
	var arena []int
	histInto(bins, it, &arena)
}

func histInto(bins []int64, it Iter[int], arena *[]int) {
	n := len(bins)
	each := func(block []int) {
		for _, b := range block {
			if b >= 0 && b < n {
				bins[b]++
			}
		}
	}
	switch it.kind {
	case KIdxNest:
		inner := it.idxN
		for i := 0; i < inner.N; i++ {
			histInto(bins, inner.At(i), arena)
		}
	case KIdxFlat:
		if ix := it.idx; !drive(ix.N, ix.fast, arena, each) {
			for i := 0; i < ix.N; i++ {
				if b := ix.At(i); b >= 0 && b < n {
					bins[b]++
				}
			}
		}
	case KIdxFilter:
		if fx := it.fidx; !drive(fx.N, fx.fast, arena, each) {
			for i := 0; i < fx.N; i++ {
				if b, ok := fx.At(i); ok && b >= 0 && b < n {
					bins[b]++
				}
			}
		}
	default:
		collectInto(it, func(b int) {
			if b >= 0 && b < n {
				bins[b]++
			}
		}, arena)
	}
}

// WeightedHistogramInto adds it's weighted updates into an existing array;
// same traversal as HistogramInto.
func WeightedHistogramInto[W Number](bins []W, it Iter[Bin[W]]) {
	var arena []Bin[W]
	weightedHistInto(bins, it, &arena)
}

func weightedHistInto[W Number](bins []W, it Iter[Bin[W]], arena *[]Bin[W]) {
	n := len(bins)
	each := func(block []Bin[W]) {
		for _, u := range block {
			if u.I >= 0 && u.I < n {
				bins[u.I] += u.W
			}
		}
	}
	switch it.kind {
	case KIdxNest:
		inner := it.idxN
		for i := 0; i < inner.N; i++ {
			weightedHistInto(bins, inner.At(i), arena)
		}
	case KIdxFlat:
		if ix := it.idx; !drive(ix.N, ix.fast, arena, each) {
			for i := 0; i < ix.N; i++ {
				if u := ix.At(i); u.I >= 0 && u.I < n {
					bins[u.I] += u.W
				}
			}
		}
	case KIdxFilter:
		if fx := it.fidx; !drive(fx.N, fx.fast, arena, each) {
			for i := 0; i < fx.N; i++ {
				if u, ok := fx.At(i); ok && u.I >= 0 && u.I < n {
					bins[u.I] += u.W
				}
			}
		}
	default:
		collectInto(it, func(u Bin[W]) {
			if u.I >= 0 && u.I < n {
				bins[u.I] += u.W
			}
		}, arena)
	}
}
