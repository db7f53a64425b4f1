package iter

// Fold is the fold encoding (paper §3.1 "Folds"): a function that drives a
// worker over every element in a fixed order. The worker returns false to
// stop early. Folds offer the consumer no control over execution order —
// which rules out zip — but nested traversals fold into clean loop nests,
// which is why the hybrid Iter consumes nesting levels through folds.
type Fold[T any] func(yield func(T) bool)

// FoldOf folds over the elements of a slice.
func FoldOf[T any](xs []T) Fold[T] {
	return func(yield func(T) bool) {
		for _, v := range xs {
			if !yield(v) {
				return
			}
		}
	}
}

// MapFold applies f to each element pushed by the fold.
func MapFold[T, U any](f func(T) U, fo Fold[T]) Fold[U] {
	return func(yield func(U) bool) {
		fo(func(v T) bool { return yield(f(v)) })
	}
}

// FilterFold keeps only elements satisfying pred.
func FilterFold[T any](pred func(T) bool, fo Fold[T]) Fold[T] {
	return func(yield func(T) bool) {
		fo(func(v T) bool {
			if !pred(v) {
				return true
			}
			return yield(v)
		})
	}
}

// ConcatMapFold expands each element into a sub-fold. Unlike steppers,
// folds nest without optimization trouble (paper §3.1): the inner fold is a
// plain nested loop.
func ConcatMapFold[T, U any](f func(T) Fold[U], fo Fold[T]) Fold[U] {
	return func(yield func(U) bool) {
		fo(func(v T) bool {
			stopped := false
			f(v)(func(u U) bool {
				if !yield(u) {
					stopped = true
					return false
				}
				return true
			})
			return !stopped
		})
	}
}

// ReduceFold reduces the fold with worker w from initial accumulator z.
func ReduceFold[T, A any](fo Fold[T], z A, w func(A, T) A) A {
	acc := z
	fo(func(v T) bool {
		acc = w(acc, v)
		return true
	})
	return acc
}

// Collector is the collector encoding (paper §3.1 "Collectors"): an
// imperative fold whose worker updates its output through side effects.
// Triolet uses collectors in sequential code for histogramming and for
// packing variable-length outputs into an array. Collectors support
// mutation but not parallel execution.
type Collector[T any] func(w func(T))

// FoldToColl converts a fold to a collector (they differ only in early
// termination and the side-effect discipline of the worker).
func FoldToColl[T any](fo Fold[T]) Collector[T] {
	return func(w func(T)) {
		fo(func(v T) bool {
			w(v)
			return true
		})
	}
}

// MapColl applies f before the worker sees each element.
func MapColl[T, U any](f func(T) U, c Collector[T]) Collector[U] {
	return func(w func(U)) {
		c(func(v T) { w(f(v)) })
	}
}

// RunInto drains the collector, appending every element to *out. This is
// the packing step for variable-length-output skeletons.
func (c Collector[T]) RunInto(out *[]T) {
	c(func(v T) { *out = append(*out, v) })
}

// Count returns the number of elements the collector produces.
func (c Collector[T]) Count() int {
	n := 0
	c(func(T) { n++ })
	return n
}
