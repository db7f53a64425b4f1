package iter

import "fmt"

// Block-at-a-time execution engine.
//
// Driving a pipeline through Idx.At, FIdx.At or a Cursor crosses one
// interface-closure boundary per stage per element: correct, but 6-18x
// slower than the hand-written loop the paper says fusion should match,
// because every element pays several indirect calls and none of the loop
// bodies are visible to the compiler at once.
//
// The block engine closes most of that gap the way indexed stream fusion
// does it: producers that know their elements live in (or derive from)
// contiguous storage expose a *block kernel* that evaluates BlockSize
// indices per indirect call into a reused buffer, and consumers run tight
// monomorphic loops over the buffer. There is one kernel type for indexers
// and partial indexers alike, and one driver (drive) that every consumer
// calls; a producer without a block path is consumed through At, which is
// also all that ToStep ever touches — the stepper is the per-element
// reference the tests and the differential oracle compare against.
//
// Kernels are generated per traversal (the generator allocates any scratch
// the kernel needs), so a shared iterator value can be traversed from many
// goroutines at once — the property the sched pool relies on when it splits
// a parallel loop into block-aligned ranges (sched.BlockAlign == BlockSize).

// BlockSize is the number of elements a block kernel evaluates per indirect
// call. 256 elements keeps the working set of a two-buffer pipeline stage
// inside L1 for 8-byte elements (2 x 2 KiB) while amortizing the per-block
// call to under 1% of per-element work.
const BlockSize = 256

// blockMin is the traversal length below which the driver reports no block
// path: a block traversal allocates its kernel and buffer, and for short
// loops (the inner iterators of ConcatMap nests, typically a handful of
// elements) that fixed cost exceeds the per-element savings.
const blockMin = 32

// kernel evaluates the index window [base, base+len(dst)) of a producer
// into dst and reports how many elements survived, packed at the front of
// dst. An indexer's kernel is total and returns len(dst); a partial
// indexer's skips rejected indices. A total indexer is a partial indexer
// that never skips (Kovach et al., indexed stream fusion), which is why the
// two share this type and every combinator written over it.
type kernel[T any] func(dst []T, base int) int

// fastPath boxes a producer's block representations behind one pointer so
// Idx and FIdx stay three words. ConcatMap pipelines construct (and copy)
// an inner Iter per outer element; keeping this state out of line means an
// At-only inner indexer — the common shape of those tiny inner loops —
// costs one nil pointer instead of a dozen dead words per copy.
//
// Three representations sit beside the kernel generator because the
// pipeline each serves measurably loses without it (DESIGN.md §8): only
// Sum (and, for the chain, FoldIdx) looks at them; every other consumer
// sees blocks.
type fastPath[T any] struct {
	// back alone is a slice view: element i is back[i], and the driver hands
	// the whole slice to the consumer as one block, zero copies. With pred
	// it is the pure-filter view — element i survives iff pred(back[i]) —
	// which holds while no stage has transformed the values (a Filter of a
	// slice view, possibly filtered again or Split). The driver builds its
	// compacting kernel on demand; Sum tests each element where it lies
	// (filter-sum: 66-74 us in place against 79-88 us and two allocations
	// through the compacting kernel).
	back []T
	pred func(T) bool

	fill func() kernel[T] // block-kernel generator

	// Map-chain representation: when mapSrc is non-nil, At(i) equals mapFns
	// applied left-to-right to mapSrc[i]. It survives only while every map
	// stage keeps the element type (detected dynamically in MapIdx), but that
	// covers the hot numeric pipelines, and it lets Sum and FoldIdx traverse
	// the whole chain in one pass over the source array — no intermediate
	// buffer and no per-stage block handoff (map-map-sum: 84 us against 127
	// us with the chain folded into the type-erased red kernels).
	mapSrc []T
	mapFns []func(T) T

	// Fused-reduction representation (see fuse.go). red, when non-nil, is a
	// func(T, int, int) T that folds elements [lo, hi) into an accumulator
	// with straight-line loads from the pipeline's source arrays — no staging
	// buffer, no per-block handoff. mkRed, when non-nil, builds the same
	// kernel for a mapped view of this producer: given g (a func(T) R for a
	// numeric R), it returns a func(R, int, int) R reducing g(At(i)), or nil
	// when R is outside the fused numeric set. Both are type-erased because
	// a generic constructor cannot name the element types of stages built
	// later; construction sites recover them with dynamic type switches.
	// Both index the source arrays, not this producer: redOff is where this
	// producer's element 0 sits in them, so restriction moves an offset
	// instead of wrapping the kernel. On a stream nest's indexer red is the
	// streamFill and redOff the outer offset (StreamNest).
	red    any
	mkRed  func(f any) any
	redOff int
}

// blocked reports whether the producer has a block kernel.
func (f *fastPath[T]) blocked() bool {
	return f != nil && (f.fill != nil || f.back != nil)
}

// kernel returns a fresh block kernel for one traversal, or nil. Kernels
// own per-traversal scratch and are not safe for concurrent use; a
// constructor composing over this producer holds the method value as its
// generator. The slice and pure-filter views have no stored generator:
// their kernels are a copy and a compacting copy of the backing window.
func (f *fastPath[T]) kernel() kernel[T] {
	switch back, pred := f.back, f.pred; {
	case f.fill != nil:
		return f.fill()
	case pred != nil:
		return func(dst []T, base int) int {
			k := 0
			for _, v := range back[base : base+len(dst)] {
				if pred(v) {
					dst[k] = v
					k++
				}
			}
			return k
		}
	case back != nil:
		return func(dst []T, base int) int { return copy(dst, back[base:]) }
	}
	return nil
}

// slice restricts the producer to the index window [lo, hi), re-based at
// zero. Every representation survives restriction (a slice of a slice is a
// slice, a kernel or fused reduction re-bases by an offset), so the
// per-task traversals of a parallel split run the same loops as the
// sequential whole.
func (f *fastPath[T]) slice(lo, hi int) *fastPath[T] {
	if f == nil {
		return nil
	}
	out := &fastPath[T]{pred: f.pred}
	if f.back != nil {
		out.back = f.back[lo:hi:hi]
	}
	if f.mapSrc != nil {
		out.mapSrc, out.mapFns = f.mapSrc[lo:hi:hi], f.mapFns
		out.fill = mapChainFill(out.mapSrc, out.mapFns)
	} else if gen := f.fill; gen != nil {
		out.fill = func() kernel[T] {
			read := gen()
			return func(dst []T, base int) int { return read(dst, base+lo) }
		}
	}
	out.red, out.mkRed, out.redOff = f.red, f.mkRed, f.redOff+lo
	return out
}

// mapKernels is Map over a kernel generator, written once for indexers and
// partial indexers: f applied to whatever survived the source's window.
func mapKernels[T, U any](f func(T) U, gen func() kernel[T]) func() kernel[U] {
	// When T == U (the assertions succeed only for identical type
	// arguments) the map transforms each block in place in the consumer's
	// buffer, skipping the scratch buffer and its extra pass.
	if sameGen, ok := any(gen).(func() kernel[U]); ok {
		if ff, ok := any(f).(func(U) U); ok {
			return func() kernel[U] {
				read := sameGen()
				return func(dst []U, base int) int {
					k := read(dst, base)
					for i, v := range dst[:k] {
						dst[i] = ff(v)
					}
					return k
				}
			}
		}
	}
	return func() kernel[U] {
		read := gen()
		var scratch []T
		return func(dst []U, base int) int {
			s := ensure(&scratch, len(dst))
			k := read(s, base)
			for i, v := range s[:k] {
				dst[i] = f(v)
			}
			return k
		}
	}
}

// filterFast is Filter over a block producer. A slice view (or a pure
// filter of one) stays a pure filter with the rejection tests composed; any
// other kernel is followed by a compaction of its block, in place.
func filterFast[T any](pred func(T) bool, src *fastPath[T]) *fastPath[T] {
	if !src.blocked() {
		return nil
	}
	if src.fill == nil {
		if p0 := src.pred; p0 != nil {
			return &fastPath[T]{back: src.back, pred: func(v T) bool { return p0(v) && pred(v) }}
		}
		return &fastPath[T]{back: src.back, pred: pred}
	}
	gen := src.fill
	return &fastPath[T]{fill: func() kernel[T] {
		read := gen()
		return func(dst []T, base int) int {
			w := 0
			for _, v := range dst[:read(dst, base)] {
				if pred(v) {
					dst[w] = v
					w++
				}
			}
			return w
		}
	}}
}

// drive is the block driver: the one place that looks inside a fastPath,
// generates a kernel, sizes a staging buffer and loops by BlockSize. It
// feeds the producer's n indices to body as successive blocks of surviving
// elements, in index order, and reports false — having called nothing —
// when the producer has no block path, in which case the consumer runs its
// own inline At loop. At-only producers are deliberately not staged here:
// evaluating ConcatMap's short inner loops through the arena cost
// concatmap-sum about 30% (43-44 us to 55-65 us).
//
// A slice view is one block, the backing array itself. Anything else stages
// through *arena, grown once to the block length and reused by every
// traversal that shares it — a nest's consumer threads one arena through
// all its inner iterators. body must not retain the block.
func drive[T any](n int, f *fastPath[T], arena *[]T, body func([]T)) bool {
	if f == nil {
		return false
	}
	if f.back != nil && f.pred == nil {
		body(f.back)
		return true
	}
	if n < blockMin {
		return false
	}
	k := f.kernel()
	if k == nil {
		return false
	}
	buf := ensure(arena, min(n, BlockSize))
	for base := 0; base < n; base += BlockSize {
		b := buf[:min(BlockSize, n-base)]
		body(b[:k(b, base)])
	}
	return true
}

// StreamNest is the nest whose inner loop over outer element a is an
// indexed stream (Kovach et al.): ext(a) indices, evaluated by the block
// kernel kern(a, dst, base). It is a plain KIdxNest whose At(i) calls kern
// on one-element windows — all ToStep and the oracle see — while consumers
// run the stream through driveNest, building nothing per outer element.
func StreamNest[A, T any](outer Idx[A], ext func(A) int, kern func(a A, dst []T, base int) int) Iter[T] {
	at := outer.At
	fill := streamFill[T](func(dst []T, i, base, hi int) (int, int, int) {
		k := 0
		for ; i < hi; i, base = i+1, 0 {
			a := at(i)
			for n := ext(a); base < n; {
				m := min(n-base, len(dst))
				if m > len(dst)-k {
					return k, i, base
				}
				k += kern(a, dst[k:k+m], base)
				base += m
			}
		}
		return k, i, base
	})
	return IdxNest(Idx[Iter[T]]{N: outer.N, fast: &fastPath[Iter[T]]{red: fill}, At: func(i int) Iter[T] {
		a := at(i)
		return IdxFilter(FIdx[T]{N: ext(a), At: func(j int) (T, bool) {
			var one [1]T
			ok := kern(a, one[:], j) == 1
			return one[0], ok
		}})
	}})
}

// streamFill is a stream nest as the driver sees it, held in fastPath.red
// with the outer offset in redOff, so Split re-bases it and Iter keeps its
// size. From inner index base of outer element i, up to outer index hi, it
// packs whole windows of up to len(dst) indices into dst while the next one
// surely fits, and reports the count and where it stopped.
type streamFill[T any] func(dst []T, i, base, hi int) (k, next, nextBase int)

// driveNest is drive for the outer window [lo, lo+ix.N) of a stream nest,
// or false having called nothing. It calls body itself, so body stays on
// the consumer's stack.
func driveNest[T any](ix Idx[Iter[T]], lo int, arena *[]T, body func([]T)) bool {
	f := ix.fast
	if f == nil {
		return false
	}
	fill, ok := f.red.(streamFill[T])
	if ok {
		buf := ensure(arena, BlockSize)
		for i, base, hi := f.redOff+lo, 0, f.redOff+lo+ix.N; i < hi; {
			var k int
			k, i, base = fill(buf, i, base, hi)
			body(buf[:k])
		}
	}
	return ok
}

// backing returns the slice view of ix, or nil.
func (ix Idx[T]) backing() []T {
	if ix.fast != nil {
		return ix.fast.back
	}
	return nil
}

// ensure grows *buf to at least n elements, reusing it across blocks.
func ensure[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// sumSliceFrom is the monomorphic reduction loop every block-driven numeric
// consumer bottoms out in; with a concrete element shape the addition
// compiles to a direct add, matching the hand-written loop. It threads the
// caller's accumulator so each block folds into the running total in element
// order, keeping float results bit-identical to a single per-element fold.
func sumSliceFrom[T Number](acc T, xs []T) T {
	for _, v := range xs {
		acc += v
	}
	return acc
}

// sumChain folds a map chain in one pass over its source array, specialized
// for the common one- and two-stage chains; the fold order is the stepper's,
// so float sums stay bit-identical.
func sumChain[T Number](acc T, src []T, fns []func(T) T) T {
	switch len(fns) {
	case 1:
		f0 := fns[0]
		for _, v := range src {
			acc += f0(v)
		}
	case 2:
		f0, f1 := fns[0], fns[1]
		for _, v := range src {
			acc += f1(f0(v))
		}
	default:
		for _, v := range src {
			for _, f := range fns {
				v = f(v)
			}
			acc += v
		}
	}
	return acc
}

// mapChainFill builds the block-kernel generator of a map chain: one pass
// over the source array applying every stage, specialized for the common
// one- and two-stage chains so each element pays exactly one indirect call
// per user function.
func mapChainFill[T any](src []T, fns []func(T) T) func() kernel[T] {
	return func() kernel[T] {
		switch len(fns) {
		case 1:
			f0 := fns[0]
			return func(dst []T, base int) int {
				for i, v := range src[base : base+len(dst)] {
					dst[i] = f0(v)
				}
				return len(dst)
			}
		case 2:
			f0, f1 := fns[0], fns[1]
			return func(dst []T, base int) int {
				for i, v := range src[base : base+len(dst)] {
					dst[i] = f1(f0(v))
				}
				return len(dst)
			}
		}
		return func(dst []T, base int) int {
			for i, v := range src[base : base+len(dst)] {
				for _, f := range fns {
					v = f(v)
				}
				dst[i] = v
			}
			return len(dst)
		}
	}
}

// FillRange evaluates outer indices [lo, lo+len(dst)) of a flat (KIdxFlat)
// iterator into dst. It is the in-place builder BuildSliceLocal and the
// distributed array builders use to write each task's range directly into
// shared output storage, which is why it drives the kernel itself instead
// of calling drive: its blocks land in dst at their own offsets, not in a
// staging buffer. Panics if it is not flat or the window leaves its domain.
func FillRange[T any](dst []T, it Iter[T], lo int) {
	if it.kind != KIdxFlat {
		panic("iter: FillRange of non-flat iterator")
	}
	ix := it.idx
	if lo < 0 || lo+len(dst) > ix.N {
		panic(fmt.Sprintf("iter: FillRange [%d,%d) of %d", lo, lo+len(dst), ix.N))
	}
	if back := ix.backing(); back != nil {
		copy(dst, back[lo:])
		return
	}
	if ix.fast.blocked() && len(dst) >= blockMin {
		k := ix.fast.kernel()
		for off := 0; off < len(dst); off += BlockSize {
			k(dst[off:min(off+BlockSize, len(dst))], lo+off)
		}
		return
	}
	for i := range dst {
		dst[i] = ix.At(lo + i)
	}
}
