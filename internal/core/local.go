// Package core implements Triolet's parallel skeletons on the virtual
// cluster: the high-level operations that inspect an iterator's parallelism
// hint and dispatch to distributed, threaded, and sequential
// implementations (paper §2, §3.4). Node-local skeletons (this file) fuse
// an iterator pipeline with a work-stealing loop over its outer indexer;
// distributed skeletons (mapreduce.go, buildarray.go) additionally
// partition the input's data source across nodes and move only the slices
// each node reads (paper §3.5).
package core

import (
	"triolet/internal/array"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/sched"
)

// effGrain resolves a caller grain against the iterator's planner hint:
// an explicit grain wins, grain <= 0 defers to iter.WithGrain's value
// (AutoPar's hook), and zero-for-both falls through to sched.DefaultGrain
// inside ParallelFor.
func effGrain[T any](grain int, it iter.Iter[T]) int {
	if grain > 0 {
		return grain
	}
	return it.Grain()
}

// SumLocal adds the elements of it. With a parallelism hint and a
// splittable outer loop it runs on the pool, one fused sequential reduction
// per stolen range; otherwise it reduces sequentially.
func SumLocal[T iter.Number](pool *sched.Pool, it iter.Iter[T], grain int) T {
	var zero T
	add := func(a, b T) T { return a + b }
	return ReduceLocal(pool, it, grain, zero,
		func(acc T, v T) T { return acc + v }, add)
}

// ReduceLocal folds it with worker w from identity id, merging per-thread
// partials with combine. combine must be associative and id its identity.
// Sequential-hinted or unsplittable iterators reduce on the caller.
func ReduceLocal[T, A any](pool *sched.Pool, it iter.Iter[T], grain int, id A, w func(A, T) A, combine func(A, A) A) A {
	n, splittable := it.OuterLen()
	if it.Hint() == iter.Sequential || !splittable || pool == nil {
		return iter.Reduce(it, id, w)
	}
	return sched.ParallelReduce(pool, n, effGrain(grain, it), id,
		func(lo, hi int) A {
			return iter.Reduce(iter.Split(it, domain.Range{Lo: lo, Hi: hi}), id, w)
		}, combine)
}

// CountLocal counts it's elements with the same dispatch as SumLocal.
func CountLocal[T any](pool *sched.Pool, it iter.Iter[T], grain int) int {
	return ReduceLocal(pool, it, grain, 0,
		func(acc int, _ T) int { return acc + 1 },
		func(a, b int) int { return a + b })
}

// HistogramLocal bins it's elements into [0, bins). Parallel execution
// gives each thread a private histogram (the OpenMP privatization pattern
// the paper's C code uses, §4.4) merged by addition afterwards.
func HistogramLocal(pool *sched.Pool, bins int, it iter.Iter[int], grain int) []int64 {
	n, splittable := it.OuterLen()
	if it.Hint() == iter.Sequential || !splittable || pool == nil {
		return iter.Histogram(bins, it)
	}
	private := make([][]int64, pool.Workers())
	for i := range private {
		private[i] = make([]int64, bins)
	}
	pool.ParallelFor(n, effGrain(grain, it), func(worker, lo, hi int) {
		iter.HistogramInto(private[worker], iter.Split(it, domain.Range{Lo: lo, Hi: hi}))
	})
	// Merge each worker's bins in one block add (array.AddInto — a
	// bounds-check-hoisted, vectorizable loop) instead of an indexed
	// per-element accumulate. Allocation stays workers+1 bin arrays,
	// independent of element count — pinned by the core alloc gate.
	out := make([]int64, bins)
	for _, h := range private {
		array.AddInto(out, h)
	}
	return out
}

// WeightedHistogramLocal is HistogramLocal for weighted updates — the
// floating-point histogram at the heart of cutcp (paper §4.5).
func WeightedHistogramLocal[W iter.Number](pool *sched.Pool, bins int, it iter.Iter[iter.Bin[W]], grain int) []W {
	n, splittable := it.OuterLen()
	if it.Hint() == iter.Sequential || !splittable || pool == nil {
		return iter.WeightedHistogram(bins, it)
	}
	private := make([][]W, pool.Workers())
	for i := range private {
		private[i] = make([]W, bins)
	}
	pool.ParallelFor(n, effGrain(grain, it), func(worker, lo, hi int) {
		iter.WeightedHistogramInto(private[worker], iter.Split(it, domain.Range{Lo: lo, Hi: hi}))
	})
	// Same block merge as HistogramLocal; for float bins the unchanged
	// per-worker merge order keeps results bit-identical to the old loop.
	out := make([]W, bins)
	for _, h := range private {
		array.AddInto(out, h)
	}
	return out
}

// BuildSliceLocal materializes a flat (KIdxFlat) iterator into a slice,
// writing disjoint index ranges in place from multiple threads when hinted
// parallel. Each task's range is evaluated by the block engine directly
// into the shared output array (iter.FillRange), so the parallel build runs
// the same block kernels as the sequential one with no per-element worker
// closure. Irregular iterators have no per-index output position; callers
// collect those sequentially or through histograms.
func BuildSliceLocal[T any](pool *sched.Pool, it iter.Iter[T], grain int) []T {
	if it.Kind() != iter.KIdxFlat {
		return iter.ToSlice(it)
	}
	n, _ := it.OuterLen()
	if it.Hint() == iter.Sequential || pool == nil {
		return iter.ToSlice(it)
	}
	out := make([]T, n)
	pool.ParallelFor(n, effGrain(grain, it), func(_, lo, hi int) {
		iter.FillRange(out[lo:hi], it, lo)
	})
	return out
}

// Build2Local materializes a 2-D iterator into a matrix, evaluating
// disjoint rectangles on the pool when hinted parallel. This is the
// shared-memory matrix builder sgemm's transposition and block assembly
// use (paper §4.3).
func Build2Local[T any](pool *sched.Pool, it iter.Iter2[T]) iter.Matrix2[T] {
	d := it.Dom()
	m := iter.Matrix2[T]{H: d.H, W: d.W, Data: make([]T, d.Size())}
	if it.Hint() == iter.Sequential || pool == nil || d.Empty() {
		iter.BuildInto(m, it, d.Whole())
		return m
	}
	pool.ParallelForRect(d, func(_ int, r domain.Rect) {
		iter.BuildInto(m, it, r)
	})
	return m
}
