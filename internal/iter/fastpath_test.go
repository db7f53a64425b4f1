package iter

import (
	"fmt"
	"testing"
)

// sumPath names the representation Sum (sumInto) consumes it through,
// testing in sumInto's order: a map chain, a fused reduction kernel, the
// slice view, the pure-filter view, a block kernel, or per-element At. A
// nest with no stream kernel is named after the path of the inner iterator
// at index inner.
func sumPath[T Number](it Iter[T], inner int) string {
	switch it.kind {
	case KIdxFlat:
		f := it.idx.fast
		switch {
		case f == nil:
		case f.mapSrc != nil:
			return fmt.Sprintf("chain/%d", len(f.mapFns))
		case redOf(f) != nil:
			return "fused"
		case f.back != nil && f.pred == nil:
			return "slice"
		case f.blocked() && it.idx.N >= blockMin:
			return "block"
		}
		return "at"
	case KIdxFilter:
		f := it.fidx.fast
		switch {
		case f == nil:
		case f.pred != nil:
			return "filter-view"
		case f.blocked() && it.fidx.N >= blockMin:
			return "block"
		}
		return "at"
	case KIdxNest:
		if f := it.idxN.fast; f != nil {
			if _, ok := f.red.(streamFill[T]); ok {
				return "stream"
			}
		}
		return "nest/" + sumPath(it.idxN.At(inner), 0)
	}
	return "step"
}

// histPath names the path HistogramInto's driver takes on a flat iterator.
func histPath(it Iter[int]) string {
	f := it.idx.fast
	switch {
	case it.kind != KIdxFlat:
		return "not flat"
	case f == nil:
	case f.back != nil && f.pred == nil:
		return "slice"
	case f.blocked() && it.idx.N >= blockMin:
		return "block"
	}
	return "at"
}

// TestFastPathPins pins which representation Sum and Histogram find on the
// seven iterator shapes whose pipeline/raw time ratio the benchmark
// reports (bench/'s iter.*.vs_raw rows, same shapes, same 2^15 size). A
// timing gate on those ratios reads layout and host noise; a lost fast
// path is the regression worth failing on, and it is deterministic. Each
// row also checks the sum against its hand-written loop. concatmap-sum has
// no block path: per outer element it walks an At-only inner iterator,
// and that row is meant to change when nests gain one.
func TestFastPathPins(t *testing.T) {
	xs := make([]int64, 1<<15)
	for i := range xs {
		xs[i] = int64(i % 1003)
	}
	fa, fb := make([]float64, 1<<15), make([]float64, 1<<15)
	for i := range fa {
		fa[i] = float64(i%911) * 0.5
		fb[i] = float64(i%613) * 0.25
	}
	raw := func(f func(v int64) int64) (acc int64) {
		for _, v := range xs {
			acc += f(v)
		}
		return acc
	}

	mapMap := Map(func(x int64) int64 { return x + 1 },
		Map(func(x int64) int64 { return x * 3 }, FromSlice(xs)))
	filter := Filter(func(v int64) bool { return v%3 == 0 }, FromSlice(xs))
	zipWith := ZipWith(func(a, b int64) int64 { return a * b }, FromSlice(xs), FromSlice(xs))
	concat := ConcatMap(func(v int64) Iter[int64] {
		return Map(func(j int) int64 { return v + int64(j) }, Range(int(v%4)))
	}, FromSlice(xs))
	dot := Map(func(p Pair[float64, float64]) float64 { return p.Fst * p.Snd },
		Zip(FromSlice(fa), FromSlice(fb)))
	hist := Map(func(v int64) int { return int(v % 64) }, FromSlice(xs))

	var dotWant float64
	for i, v := range fa {
		dotWant += v * fb[i]
	}
	var histWant int64
	for _, v := range xs {
		if v%64 == 7 {
			histWant++
		}
	}

	for _, row := range []struct {
		name, path, want string
		ok               bool
	}{
		{"sum-flat", sumPath(FromSlice(xs), 0), "slice",
			Sum(FromSlice(xs)) == raw(func(v int64) int64 { return v })},
		{"map-map-sum", sumPath(mapMap, 0), "chain/2",
			Sum(mapMap) == raw(func(v int64) int64 { return v*3 + 1 })},
		{"filter-sum", sumPath(filter, 0), "filter-view",
			Sum(filter) == raw(func(v int64) int64 {
				if v%3 != 0 {
					return 0
				}
				return v
			})},
		{"zipwith-sum", sumPath(zipWith, 0), "fused",
			Sum(zipWith) == raw(func(v int64) int64 { return v * v })},
		{"histogram", histPath(hist), "block",
			Histogram(64, hist)[7] == histWant},
		// Outer element 3 expands to the longest inner loop, Range(3).
		{"concatmap-sum", sumPath(concat, 3), "nest/at",
			Sum(concat) == raw(func(v int64) int64 { n := v % 4; return n*v + n*(n-1)/2 })},
		{"dot-product", sumPath(dot, 0), "fused", Sum(dot) == dotWant},
	} {
		if row.path != row.want {
			t.Errorf("%s: consumed through %s, want %s", row.name, row.path, row.want)
		}
		if !row.ok {
			t.Errorf("%s: result differs from the hand-written loop", row.name)
		}
	}
}
