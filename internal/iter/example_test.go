package iter_test

import (
	"fmt"

	"triolet/internal/domain"
	"triolet/internal/iter"
)

// The paper's running example: summing the positive elements of an array
// in one fused pass. Filter over an indexer keeps the outer loop
// splittable even though each index yields zero or one elements.
func ExampleFilter() {
	xs := []int{1, -2, -4, 1, 3, 4}
	it := iter.Filter(func(x int) bool { return x > 0 }, iter.FromSlice(xs))
	fmt.Println(iter.Sum(it), it.Kind(), it.CanSplit())
	// Output: 9 IdxFilter true
}

// Nested traversal: expanding each element into a variable-length inner
// loop. The result is an indexer of inner iterators (IdxNest), so the
// outer loop still parallelizes.
func ExampleConcatMap() {
	it := iter.ConcatMap(func(x int) iter.Iter[int] { return iter.Range(x) }, iter.Range(4))
	fmt.Println(iter.ToSlice(it), it.Kind())
	// Output: [0 0 1 0 1 2] IdxNest
}

// Zipping two arrays stays a flat, parallelizable indexer; the dot product
// is then a fused reduction.
func ExampleZipWith() {
	xs := []float64{1, 2, 3}
	ys := []float64{4, 5, 6}
	dot := iter.Sum(iter.ZipWith(func(a, b float64) float64 { return a * b },
		iter.FromSlice(xs), iter.FromSlice(ys)))
	fmt.Println(dot)
	// Output: 32
}

// Histogramming consumes any fused pipeline through a mutating collector.
func ExampleHistogram() {
	it := iter.Map(func(x int) int { return x % 3 }, iter.Range(10))
	fmt.Println(iter.Histogram(3, it))
	// Output: [4 3 3]
}

// Scan yields running prefixes; its last element equals the full
// reduction.
func ExampleScan() {
	it := iter.Scan(iter.FromSlice([]int{1, 2, 3, 4}), 0, func(a, v int) int { return a + v })
	fmt.Println(iter.ToSlice(it))
	// Output: [1 3 6 10]
}

// The paper's two-line matrix-multiply structure: outerproduct of row
// iterators, one dot product per output element.
func ExampleOuterProduct() {
	a := iter.Matrix2[float64]{H: 2, W: 2, Data: []float64{1, 2, 3, 4}}
	id := iter.Matrix2[float64]{H: 2, W: 2, Data: []float64{1, 0, 0, 1}} // I = Iᵀ
	zipped := iter.OuterProduct(iter.MatrixRows(a), iter.MatrixRows(id))
	prod := iter.Map2(func(p iter.Pair[[]float64, []float64]) float64 {
		var acc float64
		for i, x := range p.Fst {
			acc += x * p.Snd[i]
		}
		return acc
	}, zipped)
	fmt.Println(iter.Build(prod).Data)
	// Output: [1 2 3 4]
}

// Splitting a fused pipeline across tasks and recombining partial results
// is what makes the hybrid encoding parallel.
func ExampleSplit() {
	it := iter.Filter(func(x int) bool { return x%2 == 0 }, iter.Range(100))
	n, _ := it.OuterLen()
	total := 0
	for _, r := range domain.BlockPartition(n, 4) {
		total += iter.Sum(iter.Split(it, r))
	}
	fmt.Println(total, total == iter.Sum(it))
	// Output: 2450 true
}
