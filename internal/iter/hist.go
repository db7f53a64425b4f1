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
// reduction of paper §3.4). Nests recurse and indexers — partial ones
// without a block kernel included — are driven through At with the bin
// update inline (sumInner's shape), so an inner loop costs no collector, no
// closure and one indirect call per element.
func HistogramInto(bins []int64, it Iter[int]) {
	n := len(bins)
	switch it.kind {
	case KIdxNest:
		inner := it.idxN
		for i := 0; i < inner.N; i++ {
			HistogramInto(bins, inner.At(i))
		}
		return
	case KIdxFlat:
		ix := it.idx
		if back := ix.backing(); blockDriverEnabled && back != nil {
			for _, b := range back {
				if b >= 0 && b < n {
					bins[b]++
				}
			}
			return
		}
		if gen := ix.fillGen(); blockDriverEnabled && gen != nil && ix.N >= blockMin {
			g := gen()
			buf := make([]int, blockLen(ix.N))
			for base := 0; base < ix.N; base += BlockSize {
				end := base + BlockSize
				if end > ix.N {
					end = ix.N
				}
				b := buf[:end-base]
				g(b, base)
				for _, v := range b {
					if v >= 0 && v < n {
						bins[v]++
					}
				}
			}
			return
		}
		for i := 0; i < ix.N; i++ {
			if b := ix.At(i); b >= 0 && b < n {
				bins[b]++
			}
		}
		return
	case KIdxFilter:
		if fx := it.fidx; fx.fast == nil {
			for i := 0; i < fx.N; i++ {
				if b, ok := fx.At(i); ok && b >= 0 && b < n {
					bins[b]++
				}
			}
			return
		}
	}
	collectInto(it, func(b int) {
		if b >= 0 && b < n {
			bins[b]++
		}
	})
}

// WeightedHistogramInto adds it's weighted updates into an existing array;
// same traversal as HistogramInto.
func WeightedHistogramInto[W Number](bins []W, it Iter[Bin[W]]) {
	n := len(bins)
	switch it.kind {
	case KIdxNest:
		inner := it.idxN
		for i := 0; i < inner.N; i++ {
			WeightedHistogramInto(bins, inner.At(i))
		}
		return
	case KIdxFlat:
		ix := it.idx
		if back := ix.backing(); blockDriverEnabled && back != nil {
			for _, u := range back {
				if u.I >= 0 && u.I < n {
					bins[u.I] += u.W
				}
			}
			return
		}
		if gen := ix.fillGen(); blockDriverEnabled && gen != nil && ix.N >= blockMin {
			g := gen()
			buf := make([]Bin[W], blockLen(ix.N))
			for base := 0; base < ix.N; base += BlockSize {
				end := base + BlockSize
				if end > ix.N {
					end = ix.N
				}
				b := buf[:end-base]
				g(b, base)
				for _, u := range b {
					if u.I >= 0 && u.I < n {
						bins[u.I] += u.W
					}
				}
			}
			return
		}
		for i := 0; i < ix.N; i++ {
			if u := ix.At(i); u.I >= 0 && u.I < n {
				bins[u.I] += u.W
			}
		}
		return
	case KIdxFilter:
		if fx := it.fidx; fx.fast == nil {
			for i := 0; i < fx.N; i++ {
				if u, ok := fx.At(i); ok && u.I >= 0 && u.I < n {
					bins[u.I] += u.W
				}
			}
			return
		}
	}
	collectInto(it, func(u Bin[W]) {
		if u.I >= 0 && u.I < n {
			bins[u.I] += u.W
		}
	})
}
