// Package iter implements Triolet's hybrid fusible iterators (paper §3).
//
// Four virtual data structure encodings (paper Fig. 1) are provided:
//
//   - Idx (indexer): size + random-access lookup. Parallelizable and
//     zippable, but cannot encode variable-output loops.
//   - Step (stepper): a restartable cursor yielding one element at a time.
//     Zippable and filterable, sequential only.
//   - Fold: push-based traversal driving a worker function; supports nested
//     traversal but no zip.
//   - Collector: an imperative fold whose worker mutates state (used for
//     histogramming and packing variable-length output).
//
// The hybrid Iter type (iter.go) combines indexers and steppers at each
// nesting level so irregular loops (Filter, ConcatMap) fuse with consumers
// (Sum, Reduce, Collect, histograms) while preserving outer-loop
// parallelism — the paper's central mechanism. Where the Triolet compiler
// performed constructor-aware inlining, this package performs the same
// case analysis at iterator-construction time; the composed closures are
// the fused loop bodies.
package iter

import (
	"fmt"
	"unsafe"
)

// Idx is the indexer encoding: a virtual collection of N elements where
// element i is computed by At(i). Because any element can be retrieved
// independently, indexers can be split across parallel tasks and zipped.
//
// At is always valid. The unexported fast pointer carries the block
// engine's representations (see block.go): a slice view of the elements, a
// block-kernel generator, or a map chain over a source array. Constructors
// in this package maintain it so pipelines over slices stay on the fast
// path through Map/Zip/Slice composition, while At-only indexers — in
// particular the per-element inner loops ConcatMap constructs by the
// thousand — stay three words and allocate nothing.
type Idx[T any] struct {
	N    int
	At   func(i int) T
	fast *fastPath[T]
}

// IdxOf wraps a slice as an indexer without copying. The indexer remembers
// its backing array, so consumers iterate it with a tight loop instead of
// per-element At calls.
func IdxOf[T any](xs []T) Idx[T] {
	return Idx[T]{N: len(xs), At: func(i int) T { return xs[i] }, fast: &fastPath[T]{back: xs}}
}

// IdxRange is the indexer of the integers [0, n). Ranges shorter than
// blockMin stay At-only: no consumer drives blocks that short, and the tiny
// ranges ConcatMap feeds to inner pipelines should not pay an allocation —
// nor should a map over one, which is the mapped function itself, since
// every range's At is identity (mapIdxBase).
func IdxRange(n int) Idx[int] {
	if n < 0 {
		panic(fmt.Sprintf("iter: IdxRange(%d)", n))
	}
	out := Idx[int]{N: n, At: identity}
	if n >= blockMin {
		out.fast = &fastPath[int]{fill: func() kernel[int] {
			return func(dst []int, base int) int {
				for i := range dst {
					dst[i] = base + i
				}
				return len(dst)
			}
		}}
	}
	return out
}

func identity(i int) int { return i }

// isIdentity reports whether at is identity. A top-level function's func
// value is one static word, the same wherever it is taken.
func isIdentity[T any](at func(int) T) bool {
	id := identity
	return *(*unsafe.Pointer)(unsafe.Pointer(&at)) == *(*unsafe.Pointer)(unsafe.Pointer(&id))
}

// MapIdx builds the indexer whose lookup applies f after ix's lookup —
// straight-line code, so composition fuses (paper §3.1 "Indexers"). Over a
// slice-backed or block-capable input the composition is a block kernel:
// one call to f per element, no wrapper-closure chain. When the source
// carries a fused-reduction builder (slice-backed or a zip of slices), the
// result additionally carries a fused Sum kernel and its own builder for
// further map stages (see fuse.go).
func MapIdx[T, U any](f func(T) U, ix Idx[T]) Idx[U] {
	out := mapIdxBase(f, ix)
	// Fusion attaches only to sources worth block-driving: below blockMin
	// the extra closures would be dead weight on ConcatMap's per-element
	// inner pipelines.
	if ix.fast != nil && ix.N >= blockMin {
		if srcMk, off := sourceMkRed(ix.fast); srcMk != nil {
			if out.fast == nil {
				out.fast = &fastPath[U]{}
			}
			out.fast.red, out.fast.redOff = srcMk(any(f)), off
			out.fast.mkRed = func(g any) any { return composeMkRed(srcMk, f, g) }
		}
	}
	return out
}

// mapIdxBase is MapIdx minus the fused-reduction attachment: it builds the
// lookup and the staged block kernels.
func mapIdxBase[T, U any](f func(T) U, ix Idx[T]) Idx[U] {
	// Capture ix.At alone, not ix: the closure then holds two words instead
	// of the whole Idx struct, which matters when ConcatMap constructs one of
	// these per outer element.
	at := ix.At
	out := Idx[U]{N: ix.N}
	if g, ok := any(f).(func(int) U); ok && isIdentity(at) {
		out.At = g
	} else {
		out.At = func(i int) U { return f(at(i)) }
	}
	if back := ix.backing(); back != nil {
		out.At = func(i int) U { return f(back[i]) }
		fast := &fastPath[U]{fill: func() kernel[U] {
			return func(dst []U, base int) int {
				for i, v := range back[base : base+len(dst)] {
					dst[i] = f(v)
				}
				return len(dst)
			}
		}}
		// When T == U (detected dynamically — the assertions succeed only for
		// identical type arguments) the result is a one-stage map chain over
		// the backing array, which single-pass consumers extend and fuse.
		if src, ok := any(back).([]U); ok {
			if ff, ok := any(f).(func(U) U); ok {
				fast.mapSrc, fast.mapFns = src, []func(U) U{ff}
			}
		}
		out.fast = fast
		return out
	}
	if chain := ix.fast; chain != nil && chain.mapSrc != nil {
		if ff, ok := any(f).(func(U) U); ok {
			// Same element type: extend the chain. ix has type Idx[U] here, so
			// the remaining assertions cannot fail.
			src, prev := any(chain.mapSrc).([]U), any(chain.mapFns).([]func(U) U)
			fns := make([]func(U) U, len(prev)+1)
			copy(fns, prev)
			fns[len(prev)] = ff
			out.fast = &fastPath[U]{
				mapSrc: src,
				mapFns: fns,
				fill:   mapChainFill(src, fns),
			}
			return out
		}
		// Type change ends the chain; compose block kernels below instead.
	}
	// Sub-blockMin sources skip kernel construction entirely: no consumer
	// drives blocks that short, so the generator closure would be one more
	// dead allocation on ConcatMap's per-element inner pipelines.
	if src := ix.fast; src.blocked() && ix.N >= blockMin {
		out.fast = &fastPath[U]{fill: mapKernels(f, src.kernel)}
	}
	return out
}

// ZipIdx pairs elements at corresponding indices; the result covers the
// intersection (shorter) of the two domains. The block kernel constructs
// pairs inline — unlike ZipWithIdx with a pair-building closure, it costs
// no indirect call per element.
func ZipIdx[A, B any](a Idx[A], b Idx[B]) Idx[Pair[A, B]] {
	out := Idx[Pair[A, B]]{
		N:  min(a.N, b.N),
		At: func(i int) Pair[A, B] { return Pair[A, B]{Fst: a.At(i), Snd: b.At(i)} },
	}
	out.fast = zipFast(a.fast, b.fast, func(dst []Pair[A, B], va []A, vb []B) {
		for i := range dst {
			dst[i] = Pair[A, B]{Fst: va[i], Snd: vb[i]}
		}
	})
	if xa, xb := a.backing(), b.backing(); xa != nil && xb != nil && out.N >= blockMin {
		// A map over this zip reduces with pairs built inline from both
		// backing arrays — the fused dot-product shape.
		out.fast.mkRed = func(g any) any { return pairRed(g, xa, xb) }
	}
	return out
}

// ZipWithIdx combines elements at corresponding indices with f. Two
// slice-backed operands compose into a block kernel reading both backing
// arrays directly; other block-capable operands stage through per-traversal
// scratch buffers.
func ZipWithIdx[A, B, C any](f func(A, B) C, a Idx[A], b Idx[B]) Idx[C] {
	out := Idx[C]{
		N:  min(a.N, b.N),
		At: func(i int) C { return f(a.At(i), b.At(i)) },
	}
	out.fast = zipFast(a.fast, b.fast, func(dst []C, va []A, vb []B) {
		for i := range dst {
			dst[i] = f(va[i], vb[i])
		}
	})
	if xa, xb := a.backing(), b.backing(); xa != nil && xb != nil && out.N >= blockMin {
		// Numeric results reduce straight off both backing arrays; a
		// following map stage composes into the same kernel shape.
		out.fast.red = zipRed(f, xa, xb)
		out.fast.mkRed = func(g any) any { return zipMapRed(g, f, xa, xb) }
	}
	return out
}

// zipFast is the block representation of two producers zipped: join
// combines one window of each into dst, once per block. Two slice views
// hand join their backing windows directly; any other pair of block
// producers stages both windows through per-traversal scratch first. Nil
// when either side has no block path.
func zipFast[A, B, C any](fa *fastPath[A], fb *fastPath[B], join func(dst []C, va []A, vb []B)) *fastPath[C] {
	if !fa.blocked() || !fb.blocked() {
		return nil
	}
	if xa, xb := fa.back, fb.back; xa != nil && xb != nil {
		return &fastPath[C]{fill: func() kernel[C] {
			return func(dst []C, base int) int {
				join(dst, xa[base:base+len(dst)], xb[base:base+len(dst)])
				return len(dst)
			}
		}}
	}
	return &fastPath[C]{fill: func() kernel[C] {
		ga, gb := fa.kernel(), fb.kernel()
		var sa []A
		var sb []B
		return func(dst []C, base int) int {
			va, vb := ensure(&sa, len(dst)), ensure(&sb, len(dst))
			ga(va, base)
			gb(vb, base)
			join(dst, va, vb)
			return len(dst)
		}
	}}
}

// SliceIdx restricts an indexer to the sub-range [lo, hi), re-basing
// indices at zero. Parallel partitioning hands each task a SliceIdx; every
// block representation survives restriction (fastPath.slice), so per-task
// traversals in a work-stealing loop run the same block kernels as the
// sequential whole.
func SliceIdx[T any](ix Idx[T], lo, hi int) Idx[T] {
	if lo < 0 || hi > ix.N || lo > hi {
		panic(fmt.Sprintf("iter: SliceIdx[%d,%d) of %d", lo, hi, ix.N))
	}
	if back := ix.backing(); back != nil {
		return IdxOf(back[lo:hi:hi])
	}
	return Idx[T]{N: hi - lo, At: func(i int) T { return ix.At(lo + i) }, fast: ix.fast.slice(lo, hi)}
}

// FoldIdx reduces the indexer left-to-right with worker w from initial
// accumulator z. This is the idxToFold conversion of paper §3.3.
func FoldIdx[T, A any](ix Idx[T], z A, w func(A, T) A) A {
	var arena []T
	return foldIdx(ix, z, w, &arena)
}

// foldIdx is FoldIdx staging through the caller's arena: a map chain folds
// in one pass over its source array, block producers through the driver,
// anything else through At.
func foldIdx[T, A any](ix Idx[T], acc A, w func(A, T) A, arena *[]T) A {
	if f := ix.fast; f != nil && f.mapSrc != nil {
		mapSrc, mapFns := f.mapSrc, f.mapFns
		switch len(mapFns) {
		case 1:
			f0 := mapFns[0]
			for _, v := range mapSrc {
				acc = w(acc, f0(v))
			}
		case 2:
			f0, f1 := mapFns[0], mapFns[1]
			for _, v := range mapSrc {
				acc = w(acc, f1(f0(v)))
			}
		default:
			for _, v := range mapSrc {
				for _, f := range mapFns {
					v = f(v)
				}
				acc = w(acc, v)
			}
		}
		return acc
	}
	if out, ok := foldBlocks(ix.N, ix.fast, acc, w, arena); ok {
		return out
	}
	for i := 0; i < ix.N; i++ {
		acc = w(acc, ix.At(i))
	}
	return acc
}

// foldBlocks left-folds a block producer with w; ok is false, and nothing
// was folded, when the driver found no block path. Each block folds on a
// copy of the accumulator (foldSlice), so the captured one is touched once
// per block, not once per element.
func foldBlocks[T, A any](n int, f *fastPath[T], z A, w func(A, T) A, arena *[]T) (A, bool) {
	ok := drive(n, f, arena, func(b []T) { z = foldSlice(z, b, w) })
	return z, ok
}

// foldNest is foldBlocks over a stream nest.
func foldNest[T, A any](ix Idx[Iter[T]], lo int, z A, w func(A, T) A, arena *[]T) (A, bool) {
	ok := driveNest(ix, lo, arena, func(b []T) { z = foldSlice(z, b, w) })
	return z, ok
}

func foldSlice[T, A any](acc A, b []T, w func(A, T) A) A {
	for _, v := range b {
		acc = w(acc, v)
	}
	return acc
}

// IdxToStep converts an indexer to a stepper that yields elements in index
// order (paper Fig. 2's idxToStep). The conversion loses parallelism but
// gains filterability.
func IdxToStep[T any](ix Idx[T]) Step[T] {
	return Step[T]{Gen: func() Cursor[T] {
		i := 0
		return func() (T, bool) {
			if i >= ix.N {
				var zero T
				return zero, false
			}
			v := ix.At(i)
			i++
			return v, true
		}
	}}
}

// IdxToFold converts an indexer to the push-based fold encoding.
func IdxToFold[T any](ix Idx[T]) Fold[T] {
	return func(yield func(T) bool) {
		for i := 0; i < ix.N; i++ {
			if !yield(ix.At(i)) {
				return
			}
		}
	}
}

// IdxToColl converts an indexer to a collector that pushes every element to
// the side-effecting worker (paper §3.1 idxToColl). The conversion removes
// the potential for parallelization.
func IdxToColl[T any](ix Idx[T]) Collector[T] {
	return func(w func(T)) {
		for i := 0; i < ix.N; i++ {
			w(ix.At(i))
		}
	}
}

// Pair is an anonymous product; Zip produces Pairs.
type Pair[A, B any] struct {
	Fst A
	Snd B
}

// Triple is a three-way product; Zip3 produces Triples.
type Triple[A, B, C any] struct {
	Fst A
	Snd B
	Trd C
}
