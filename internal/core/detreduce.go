package core

import "triolet/internal/sched"

// Deterministic reductions. The plain reduction skeletons are only
// associativity-deterministic: sched.ParallelReduce merges per-worker
// partials in steal order, and MapReduceOp splits the domain by node count,
// so a floating-point Sum changes in the last bits when the worker count,
// the steal schedule, or the node count changes. That is fine for the
// integer skeletons and tolerance-checked kernels, but the differential
// oracle (internal/diffcheck) demands bit-equal float sums across execution
// modes, so its executors make the reduction tree a function of the domain
// alone:
//
//  1. the domain [0, n) is cut into fixed DetChunk-wide chunks at absolute
//     offsets (chunk k covers [k*DetChunk, (k+1)*DetChunk) ∩ [0, n)),
//  2. each chunk is folded sequentially in element order — the block and
//     per-element engines already agree bit-for-bit on an in-order fold,
//  3. chunk partials are combined by a fixed balanced pairwise tree over
//     the chunk vector (CombineTree).
//
// Which worker or node computes a chunk never changes what is added to
// what, so any pool width, steal schedule or node count yields
// bit-identical floats.

// DetChunk is the chunk width of deterministic reductions. It equals
// sched.BlockAlign (== iter.BlockSize) so chunk folds run full-width block
// kernels and pool splits never cut through a chunk; the pairing is
// asserted by a test.
const DetChunk = sched.BlockAlign

// CombineTree folds parts with a fixed balanced binary tree whose shape
// depends only on len(parts): adjacent pairs combine, then adjacent pair
// results, and so on; an odd trailing element is carried up unchanged.
// Reductions that must be bit-reproducible for floats use it in place of a
// schedule-dependent fold. combine need not be commutative: arguments keep
// their left-to-right order.
func CombineTree[A any](parts []A, id A, combine func(A, A) A) A {
	if len(parts) == 0 {
		return id
	}
	buf := append([]A(nil), parts...)
	for len(buf) > 1 {
		w := 0
		i := 0
		for ; i+1 < len(buf); i += 2 {
			buf[w] = combine(buf[i], buf[i+1])
			w++
		}
		if i < len(buf) {
			buf[w] = buf[i]
			w++
		}
		buf = buf[:w]
	}
	return buf[0]
}
