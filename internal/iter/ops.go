package iter

import "fmt"

// Take, Drop, Chain and Scan are the pipeline ops the differential oracle
// (ApplyPipeOp in pipegen.go) draws beside Map, Filter and ConcatMap. Each
// dispatches on the input constructor, and a flat indexer stays a flat
// indexer wherever the op allows, so parallelism is not lost.

// Take yields at most n elements. A flat indexer stays a flat indexer
// (it is just a prefix slice); everything else goes through a stepper.
func Take[T any](n int, it Iter[T]) Iter[T] {
	if n < 0 {
		panic(fmt.Sprintf("iter: Take(%d)", n))
	}
	if it.kind == KIdxFlat {
		out := IdxFlat(SliceIdx(it.idx, 0, min(n, it.idx.N)))
		out.hint = it.hint
		return out
	}
	out := StepFlat(TakeStep(n, ToStep(it)))
	out.hint = it.hint
	return out
}

// Drop skips the first n elements. A flat indexer stays a flat indexer.
func Drop[T any](n int, it Iter[T]) Iter[T] {
	if n < 0 {
		panic(fmt.Sprintf("iter: Drop(%d)", n))
	}
	if it.kind == KIdxFlat {
		out := IdxFlat(SliceIdx(it.idx, min(n, it.idx.N), it.idx.N))
		out.hint = it.hint
		return out
	}
	src := ToStep(it)
	out := StepFlat(Step[T]{Gen: func() Cursor[T] {
		cur := src.Gen()
		for range n {
			if _, ok := cur(); !ok {
				break
			}
		}
		return cur
	}})
	out.hint = it.hint
	return out
}

// Chain concatenates two iterators. Two flat indexers chain into an
// indexer (random access is preserved by index arithmetic); any other
// combination becomes a two-element nest, preserving each side's inner
// structure.
func Chain[T any](a, b Iter[T]) Iter[T] {
	hint := mergeHint(a.hint, b.hint)
	if a.kind == KIdxFlat && b.kind == KIdxFlat {
		ia, ib := a.idx, b.idx
		out := IdxFlat(Idx[T]{N: ia.N + ib.N, At: func(i int) T {
			if i < ia.N {
				return ia.At(i)
			}
			return ib.At(i - ia.N)
		}})
		out.hint = hint
		return out
	}
	parts := [2]Iter[T]{a, b}
	out := IdxNest(Idx[Iter[T]]{N: 2, At: func(i int) Iter[T] { return parts[i] }})
	out.hint = hint
	return out
}

// Scan yields the running left-fold of the iterator: for input x0, x1, …
// it yields w(z,x0), w(w(z,x0),x1), … — inherently sequential (each output
// depends on all earlier inputs), so the result is always a stepper. This
// is the fusible sequential scan; the *parallel* multi-pass scan the paper
// contrasts against lives in core.PackLocal.
func Scan[T, A any](it Iter[T], z A, w func(A, T) A) Iter[A] {
	src := ToStep(it)
	out := StepFlat(Step[A]{Gen: func() Cursor[A] {
		cur := src.Gen()
		acc := z
		return func() (A, bool) {
			v, ok := cur()
			if !ok {
				var zero A
				return zero, false
			}
			acc = w(acc, v)
			return acc, true
		}
	}})
	out.hint = it.hint
	return out
}

// Mean returns the arithmetic mean of a float64 iterator and the element
// count (mean is 0 for an empty iterator).
//
// No program calls Mean. It stays because it is this package's one float64
// instantiation of Reduce: without it the linker takes the float64 drive,
// driveNest and kernel code from a later package, which shifts the text of
// every package linked in between. On that layout alone the sgemm-wire
// benchmark's vs_ref read 0.97-1.01, where it reads 0.72-0.87 with Mean
// in place.
func Mean(it Iter[float64]) (float64, int) {
	type acc struct {
		sum float64
		n   int
	}
	r := Reduce(it, acc{}, func(a acc, v float64) acc {
		return acc{sum: a.sum + v, n: a.n + 1}
	})
	if r.n == 0 {
		return 0, 0
	}
	return r.sum / float64(r.n), r.n
}
