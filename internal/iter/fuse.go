package iter

// Fused reduction kernels.
//
// The block engine (block.go) closes most of the gap to hand-written loops
// by staging BlockSize elements through a reused buffer. For reductions the
// buffer itself is the remaining overhead: a zipWith-sum stages every pair
// through memory that a raw loop would keep in registers. The fused kernels
// here eliminate the staging entirely — a producer whose elements derive
// from contiguous storage exposes a reduction kernel func(acc, lo, hi) acc
// that loads directly from the source arrays and folds in index order, so
// Sum over zipWith/dot-product pipelines runs the same loop shape as the
// hand-written code: one indirect call per user function per element and
// zero buffer traffic.
//
// The kernels are type-erased (fastPath.red, fastPath.mkRed) because generics
// cannot express "this pipeline will later be mapped to a type I cannot
// name yet". Each construction site knows its own concrete types, so it
// recovers the erased function with a dynamic type switch over the closed
// numeric set below; a pipeline whose types fall outside the set simply
// lacks the kernel and stays on the staged block path. Folds run
// left-to-right with the stepper's addition order, so float results are
// bit-identical to it (the consumer x producer table in
// block_equiv_test.go compares them).
//
// Fused numeric result set: float64, float32, int, int64, int32, uint32,
// uint64 — the element types the benchmarks and the serial wire format
// traffic in.

// redOf returns the producer's fused reduction kernel, or nil. The type
// assertion recovers the erased kernel only when its accumulator type
// matches T.
func redOf[T any](f *fastPath[T]) func(T, int, int) T {
	r, _ := f.red.(func(T, int, int) T)
	return r
}

// mapRedKernel folds g over one source array: acc += g(back[i]).
func mapRedKernel[T any, R Number](g func(T) R, back []T) func(R, int, int) R {
	return func(acc R, lo, hi int) R {
		for _, v := range back[lo:hi] {
			acc += g(v)
		}
		return acc
	}
}

// zipRedKernel folds f over two source arrays: acc += f(xa[i], xb[i]).
func zipRedKernel[A, B any, R Number](f func(A, B) R, xa []A, xb []B) func(R, int, int) R {
	return func(acc R, lo, hi int) R {
		va, vb := xa[lo:hi], xb[lo:hi]
		for i := range va {
			acc += f(va[i], vb[i])
		}
		return acc
	}
}

// pairRedKernel folds g over pairs built inline from two source arrays.
func pairRedKernel[A, B any, R Number](g func(Pair[A, B]) R, xa []A, xb []B) func(R, int, int) R {
	return func(acc R, lo, hi int) R {
		va, vb := xa[lo:hi], xb[lo:hi]
		for i := range va {
			acc += g(Pair[A, B]{Fst: va[i], Snd: vb[i]})
		}
		return acc
	}
}

// sliceMapRed builds the fused kernel reducing g over a backing array,
// where g is a func(T) R for some fused numeric R; nil otherwise.
func sliceMapRed[T any](g any, back []T) any {
	switch gn := g.(type) {
	case func(T) float64:
		return mapRedKernel(gn, back)
	case func(T) float32:
		return mapRedKernel(gn, back)
	case func(T) int:
		return mapRedKernel(gn, back)
	case func(T) int64:
		return mapRedKernel(gn, back)
	case func(T) int32:
		return mapRedKernel(gn, back)
	case func(T) uint32:
		return mapRedKernel(gn, back)
	case func(T) uint64:
		return mapRedKernel(gn, back)
	}
	return nil
}

// zipRed builds the fused kernel reducing f(xa[i], xb[i]) when f's result
// is a fused numeric type; nil otherwise.
func zipRed[A, B, C any](f func(A, B) C, xa []A, xb []B) any {
	switch fn := any(f).(type) {
	case func(A, B) float64:
		return zipRedKernel(fn, xa, xb)
	case func(A, B) float32:
		return zipRedKernel(fn, xa, xb)
	case func(A, B) int:
		return zipRedKernel(fn, xa, xb)
	case func(A, B) int64:
		return zipRedKernel(fn, xa, xb)
	case func(A, B) int32:
		return zipRedKernel(fn, xa, xb)
	case func(A, B) uint32:
		return zipRedKernel(fn, xa, xb)
	case func(A, B) uint64:
		return zipRedKernel(fn, xa, xb)
	}
	return nil
}

// zipMapRed builds the fused kernel reducing g(f(xa[i], xb[i])) — a map
// stage layered on a zipWith — when g is a func(C) R for a fused numeric R.
func zipMapRed[A, B, C any](g any, f func(A, B) C, xa []A, xb []B) any {
	switch gn := g.(type) {
	case func(C) float64:
		return zipRedKernel(func(a A, b B) float64 { return gn(f(a, b)) }, xa, xb)
	case func(C) float32:
		return zipRedKernel(func(a A, b B) float32 { return gn(f(a, b)) }, xa, xb)
	case func(C) int:
		return zipRedKernel(func(a A, b B) int { return gn(f(a, b)) }, xa, xb)
	case func(C) int64:
		return zipRedKernel(func(a A, b B) int64 { return gn(f(a, b)) }, xa, xb)
	case func(C) int32:
		return zipRedKernel(func(a A, b B) int32 { return gn(f(a, b)) }, xa, xb)
	case func(C) uint32:
		return zipRedKernel(func(a A, b B) uint32 { return gn(f(a, b)) }, xa, xb)
	case func(C) uint64:
		return zipRedKernel(func(a A, b B) uint64 { return gn(f(a, b)) }, xa, xb)
	}
	return nil
}

// pairRed builds the fused kernel reducing g over inline-constructed pairs
// — a map stage layered on a Zip — when g is a func(Pair[A, B]) R for a
// fused numeric R. This is the kernel behind the dot-product shape
// Sum(Map(mul, Zip(a, b))): the pair never touches a staging buffer.
func pairRed[A, B any](g any, xa []A, xb []B) any {
	switch gn := g.(type) {
	case func(Pair[A, B]) float64:
		return pairRedKernel(gn, xa, xb)
	case func(Pair[A, B]) float32:
		return pairRedKernel(gn, xa, xb)
	case func(Pair[A, B]) int:
		return pairRedKernel(gn, xa, xb)
	case func(Pair[A, B]) int64:
		return pairRedKernel(gn, xa, xb)
	case func(Pair[A, B]) int32:
		return pairRedKernel(gn, xa, xb)
	case func(Pair[A, B]) uint32:
		return pairRedKernel(gn, xa, xb)
	case func(Pair[A, B]) uint64:
		return pairRedKernel(gn, xa, xb)
	}
	return nil
}

// composeMkRed threads a map stage f through a source's mkRed builder: the
// fused kernel for g∘f over the source, when g is a func(U) R for a fused
// numeric R.
func composeMkRed[T, U any](srcMk func(any) any, f func(T) U, g any) any {
	switch gn := g.(type) {
	case func(U) float64:
		return srcMk(any(func(v T) float64 { return gn(f(v)) }))
	case func(U) float32:
		return srcMk(any(func(v T) float32 { return gn(f(v)) }))
	case func(U) int:
		return srcMk(any(func(v T) int { return gn(f(v)) }))
	case func(U) int64:
		return srcMk(any(func(v T) int64 { return gn(f(v)) }))
	case func(U) int32:
		return srcMk(any(func(v T) int32 { return gn(f(v)) }))
	case func(U) uint32:
		return srcMk(any(func(v T) uint32 { return gn(f(v)) }))
	case func(U) uint64:
		return srcMk(any(func(v T) uint64 { return gn(f(v)) }))
	}
	return nil
}

// sourceMkRed returns the mapped-reduction builder of a producer and the
// offset of the producer's element 0 in the builder's index space: its own
// mkRed when it has one, or a builder over its backing array. Nil when the
// producer has no fused source.
func sourceMkRed[T any](fast *fastPath[T]) (mk func(any) any, off int) {
	if fast.mkRed != nil {
		return fast.mkRed, fast.redOff
	}
	if back := fast.back; back != nil {
		return func(g any) any { return sliceMapRed(g, back) }, 0
	}
	return nil, 0
}
