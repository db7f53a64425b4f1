package iter

import (
	"fmt"

	"triolet/internal/domain"
)

// Kind identifies which constructor built an Iter (paper §3.2's GADT
// constructors). Library functions dispatch on the kind exactly as the
// equations of paper Fig. 2 dispatch on constructors; because the kind is
// known when an iterator is constructed, each operation composes concrete
// loop code rather than leaving an interpretive layer — the Go analog of
// Triolet's constructor-aware inlining.
type Kind uint8

const (
	// KIdxFlat is an indexer of values: a regular, parallelizable loop.
	KIdxFlat Kind = iota
	// KStepFlat is a stepper of values: a sequential variable-length loop.
	KStepFlat
	// KIdxNest is an indexer of inner iterators: a loop nest whose outer
	// loop is regular and parallelizable while inner loops may be
	// irregular. Filter and ConcatMap over regular input produce this.
	KIdxNest
	// KStepNest is a stepper of inner iterators: a fully sequential nest.
	KStepNest
	// KIdxFilter is a flat indexer with a fused rejection test: index i
	// yields zero or one elements. Semantically it is the IdxNest of
	// zero-or-one-element steppers that paper Fig. 2's filter equation
	// constructs — KIdxFilter is the simplified form Triolet's optimizer
	// reduces that construction to, kept as an explicit constructor here
	// because Go has no compile-time stage to erase the per-element
	// stepper allocations. It remains splittable: indices are not
	// reassigned (paper §3.2's key invariant).
	KIdxFilter
)

func (k Kind) String() string {
	switch k {
	case KIdxFlat:
		return "IdxFlat"
	case KStepFlat:
		return "StepFlat"
	case KIdxNest:
		return "IdxNest"
	case KStepNest:
		return "StepNest"
	case KIdxFilter:
		return "IdxFilter"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParHint records how the user asked a loop to be parallelized (paper
// §3.4). Loops are sequential by default; Par requests distributed + thread
// parallelism, LocalPar thread parallelism within one node.
type ParHint uint8

const (
	// Sequential executes on the calling goroutine.
	Sequential ParHint = iota
	// NodePar parallelizes across cores of the local node only (localpar).
	NodePar
	// ClusterPar parallelizes across nodes and cores (par).
	ClusterPar
)

func (h ParHint) String() string {
	switch h {
	case Sequential:
		return "seq"
	case NodePar:
		return "localpar"
	case ClusterPar:
		return "par"
	}
	return fmt.Sprintf("ParHint(%d)", uint8(h))
}

// Iter is the hybrid iterator (paper §3.2): a loop nest encoded with either
// an indexer or a stepper at each nesting level. All skeleton functions in
// this package preserve the invariant that an iterator's outer structure is
// determined solely by its input's structure, so compositions of calls
// always simplify to a fused loop nest.
type Iter[T any] struct {
	kind  Kind
	idx   Idx[T]        // KIdxFlat
	step  Step[T]       // KStepFlat
	idxN  Idx[Iter[T]]  // KIdxNest
	stepN Step[Iter[T]] // KStepNest
	fidx  FIdx[T]       // KIdxFilter
	hint  ParHint
	grain int // planner-chosen parallel grain; 0 = consumer default (grain.go)
}

// FIdx is the partial indexer backing KIdxFilter: At reports ok=false when
// index i's element is rejected. The unexported fast pointer carries the
// block engine's representations (see block.go): a compacting block kernel
// — one indirect call evaluates a whole block of indices and packs the
// survivors to the front of a buffer — or the pure-filter slice+predicate
// view, so filter-heavy consumers avoid the two-valued At call per element.
type FIdx[T any] struct {
	N    int
	At   func(i int) (T, bool)
	fast *fastPath[T]
}

// IdxFilter wraps a partial indexer as an iterator.
func IdxFilter[T any](fx FIdx[T]) Iter[T] { return Iter[T]{kind: KIdxFilter, fidx: fx} }

// Kind reports which constructor built the iterator.
func (it Iter[T]) Kind() Kind { return it.kind }

// Hint reports the iterator's parallelism hint.
func (it Iter[T]) Hint() ParHint { return it.hint }

// IdxFlat wraps an indexer as an iterator.
func IdxFlat[T any](ix Idx[T]) Iter[T] { return Iter[T]{kind: KIdxFlat, idx: ix} }

// StepFlat wraps a stepper as an iterator.
func StepFlat[T any](s Step[T]) Iter[T] { return Iter[T]{kind: KStepFlat, step: s} }

// IdxNest wraps an indexer of inner iterators as a nested iterator.
func IdxNest[T any](ix Idx[Iter[T]]) Iter[T] { return Iter[T]{kind: KIdxNest, idxN: ix} }

// StepNest wraps a stepper of inner iterators as a nested iterator.
func StepNest[T any](s Step[Iter[T]]) Iter[T] { return Iter[T]{kind: KStepNest, stepN: s} }

// FromSlice iterates over the elements of a slice (no copy).
func FromSlice[T any](xs []T) Iter[T] { return IdxFlat(IdxOf(xs)) }

// Range iterates over the integers [0, n) (the counted-loop iterator).
func Range(n int) Iter[int] { return IdxFlat(IdxRange(n)) }

// RangeOf iterates over the integers of r.
func RangeOf(r domain.Range) Iter[int] {
	return IdxFlat(Idx[int]{N: r.Len(), At: func(i int) int { return r.Lo + i }})
}

// Empty is the iterator with no elements.
func Empty[T any]() Iter[T] {
	return IdxFlat(Idx[T]{N: 0, At: func(int) T { panic("iter: Empty.At") }})
}

// Single is the iterator yielding exactly v.
func Single[T any](v T) Iter[T] {
	return IdxFlat(Idx[T]{N: 1, At: func(int) T { return v }})
}

// Par marks the iterator for distributed + thread parallelism (paper's par
// hint). Consumers that understand the hint (the skeletons in
// internal/core) choose a distributed implementation.
func Par[T any](it Iter[T]) Iter[T] { it.hint = ClusterPar; return it }

// LocalPar marks the iterator for thread parallelism within one node
// (paper's localpar hint).
func LocalPar[T any](it Iter[T]) Iter[T] { it.hint = NodePar; return it }

// Seq clears any parallelism hint.
func Seq[T any](it Iter[T]) Iter[T] { it.hint = Sequential; return it }

// ToStep flattens any iterator into a sequential stepper (paper Fig. 2's
// toStep, used when zipping irregular iterators). Parallelism potential is
// lost; ordering is preserved.
func ToStep[T any](it Iter[T]) Step[T] {
	switch it.kind {
	case KIdxFlat:
		return IdxToStep(it.idx)
	case KIdxFilter:
		fx := it.fidx
		return Step[T]{Gen: func() Cursor[T] {
			i := 0
			return func() (T, bool) {
				for i < fx.N {
					v, ok := fx.At(i)
					i++
					if ok {
						return v, true
					}
				}
				var zero T
				return zero, false
			}
		}}
	case KStepFlat:
		return it.step
	case KIdxNest:
		return ConcatMapStep(ToStep[T], IdxToStep(it.idxN))
	case KStepNest:
		return ConcatMapStep(ToStep[T], it.stepN)
	}
	panic("iter: bad kind")
}

// Map applies f to every element. The output loop structure mirrors the
// input structure, so regular input stays parallelizable and nested input
// stays a loop nest.
func Map[T, U any](f func(T) U, it Iter[T]) Iter[U] {
	out := Iter[U]{kind: it.kind, hint: it.hint, grain: it.grain}
	switch it.kind {
	case KIdxFlat:
		out.idx = MapIdx(f, it.idx)
	case KStepFlat:
		out.step = MapStep(f, it.step)
	case KIdxNest:
		out.idxN = MapIdx(func(inner Iter[T]) Iter[U] { return Map(f, inner) }, it.idxN)
	case KStepNest:
		out.stepN = MapStep(func(inner Iter[T]) Iter[U] { return Map(f, inner) }, it.stepN)
	case KIdxFilter:
		fx := it.fidx
		out.fidx = FIdx[U]{N: fx.N, At: func(i int) (U, bool) {
			v, ok := fx.At(i)
			if !ok {
				var zero U
				return zero, false
			}
			return f(v), true
		}}
		if src := fx.fast; src.blocked() {
			out.fidx.fast = &fastPath[U]{fill: mapKernels(f, src.kernel)}
		}
	default:
		panic("iter: bad kind")
	}
	return out
}

// Filter keeps elements satisfying pred (paper Fig. 2's filter). Over a
// flat indexer it produces a partial indexer (KIdxFilter, the simplified
// form of Fig. 2's indexer of zero-or-one-element steppers): indices are
// not reassigned, so the outer loop remains partitionable across parallel
// tasks, which is the key to fusing sum-of-filter without a counting pass
// (paper §3.2).
func Filter[T any](pred func(T) bool, it Iter[T]) Iter[T] {
	out := Iter[T]{hint: it.hint, grain: it.grain}
	switch it.kind {
	case KIdxFlat:
		// Paper Fig. 2 builds IdxNest(mapIdx(StepFlat . filterStep pred .
		// unitStep)); KIdxFilter is that term after simplification.
		ix := it.idx
		out.kind = KIdxFilter
		out.fidx = FIdx[T]{N: ix.N, At: func(i int) (T, bool) {
			v := ix.At(i)
			return v, pred(v)
		}}
		out.fidx.fast = filterFast(pred, ix.fast)
	case KIdxFilter:
		// Filtering twice composes the rejection tests.
		fx := it.fidx
		out.kind = KIdxFilter
		out.fidx = FIdx[T]{N: fx.N, At: func(i int) (T, bool) {
			v, ok := fx.At(i)
			return v, ok && pred(v)
		}}
		out.fidx.fast = filterFast(pred, fx.fast)
	case KStepFlat:
		out.kind = KStepFlat
		out.step = FilterStep(pred, it.step)
	case KIdxNest:
		out.kind = KIdxNest
		out.idxN = MapIdx(func(inner Iter[T]) Iter[T] { return Filter(pred, inner) }, it.idxN)
	case KStepNest:
		out.kind = KStepNest
		out.stepN = MapStep(func(inner Iter[T]) Iter[T] { return Filter(pred, inner) }, it.stepN)
	default:
		panic("iter: bad kind")
	}
	return out
}

// ConcatMap expands every element into an inner iterator and concatenates
// the results (paper Fig. 2's concatMap) — the nested-traversal skeleton.
// Over a flat indexer it adds one level of nesting, preserving outer-loop
// parallelism instead of falling back to slow stepper nesting.
func ConcatMap[T, U any](f func(T) Iter[U], it Iter[T]) Iter[U] {
	out := Iter[U]{hint: it.hint, grain: it.grain}
	switch it.kind {
	case KIdxFlat:
		out.kind = KIdxNest
		out.idxN = MapIdx(f, it.idx)
	case KIdxFilter:
		fx := it.fidx
		out.kind = KIdxNest
		out.idxN = Idx[Iter[U]]{N: fx.N, At: func(i int) Iter[U] {
			v, ok := fx.At(i)
			if !ok {
				return Empty[U]()
			}
			return f(v)
		}}
	case KStepFlat:
		out.kind = KStepNest
		out.stepN = MapStep(f, it.step)
	case KIdxNest:
		out.kind = KIdxNest
		out.idxN = MapIdx(func(inner Iter[T]) Iter[U] { return ConcatMap(f, inner) }, it.idxN)
	case KStepNest:
		out.kind = KStepNest
		out.stepN = MapStep(func(inner Iter[T]) Iter[U] { return ConcatMap(f, inner) }, it.stepN)
	default:
		panic("iter: bad kind")
	}
	return out
}

// Zip pairs corresponding elements (paper Fig. 2's zip). Two flat indexers
// zip into a flat indexer, preserving parallelism for regular loops; any
// other combination is zipped sequentially through steppers.
func Zip[A, B any](a Iter[A], b Iter[B]) Iter[Pair[A, B]] {
	hint := mergeHint(a.hint, b.hint)
	grain := mergeGrain(a.grain, b.grain)
	if a.kind == KIdxFlat && b.kind == KIdxFlat {
		out := IdxFlat(ZipIdx(a.idx, b.idx))
		out.hint, out.grain = hint, grain
		return out
	}
	out := StepFlat(ZipStep(ToStep(a), ToStep(b)))
	out.hint, out.grain = hint, grain
	return out
}

// ZipWith combines corresponding elements with f.
func ZipWith[A, B, C any](f func(A, B) C, a Iter[A], b Iter[B]) Iter[C] {
	hint := mergeHint(a.hint, b.hint)
	grain := mergeGrain(a.grain, b.grain)
	if a.kind == KIdxFlat && b.kind == KIdxFlat {
		out := IdxFlat(ZipWithIdx(f, a.idx, b.idx))
		out.hint, out.grain = hint, grain
		return out
	}
	out := Map(func(p Pair[A, B]) C { return f(p.Fst, p.Snd) }, Zip(a, b))
	out.hint, out.grain = hint, grain
	return out
}

// Zip3 triples corresponding elements of three iterators.
func Zip3[A, B, C any](a Iter[A], b Iter[B], c Iter[C]) Iter[Triple[A, B, C]] {
	hint := mergeHint(mergeHint(a.hint, b.hint), c.hint)
	grain := mergeGrain(mergeGrain(a.grain, b.grain), c.grain)
	if a.kind == KIdxFlat && b.kind == KIdxFlat && c.kind == KIdxFlat {
		n := min(a.idx.N, b.idx.N, c.idx.N)
		ia, ib, ic := a.idx, b.idx, c.idx
		out := IdxFlat(Idx[Triple[A, B, C]]{N: n, At: func(i int) Triple[A, B, C] {
			return Triple[A, B, C]{Fst: ia.At(i), Snd: ib.At(i), Trd: ic.At(i)}
		}})
		out.hint, out.grain = hint, grain
		return out
	}
	out := Map(func(p Pair[Pair[A, B], C]) Triple[A, B, C] {
		return Triple[A, B, C]{Fst: p.Fst.Fst, Snd: p.Fst.Snd, Trd: p.Snd}
	}, Zip(Zip(a, b), c))
	out.hint, out.grain = hint, grain
	return out
}

func mergeHint(a, b ParHint) ParHint { return max(a, b) }

// Collect converts the iterator into a collector that pushes every element
// to a side-effecting worker (paper Fig. 2's collect). Each nesting level
// becomes one loop of the resulting loop nest. Slice-backed and
// block-capable producers feed the worker from tight buffer loops.
func Collect[T any](it Iter[T]) Collector[T] {
	return func(w func(T)) {
		var arena []T
		collectInto(it, w, &arena)
	}
}

// collectInto runs Collect's loop nest: one recursive walk, so a nest builds
// no collector closure per inner iterator and stages every block-driven
// inner loop through one arena.
func collectInto[T any](it Iter[T], w func(T), arena *[]T) {
	each := func(b []T) {
		for _, v := range b {
			w(v)
		}
	}
	switch it.kind {
	case KIdxFlat:
		if ix := it.idx; !drive(ix.N, ix.fast, arena, each) {
			for i := 0; i < ix.N; i++ {
				w(ix.At(i))
			}
		}
	case KIdxFilter:
		if fx := it.fidx; !drive(fx.N, fx.fast, arena, each) {
			for i := 0; i < fx.N; i++ {
				if v, ok := fx.At(i); ok {
					w(v)
				}
			}
		}
	case KStepFlat:
		cur := it.step.Gen()
		for v, ok := cur(); ok; v, ok = cur() {
			w(v)
		}
	case KIdxNest:
		inner := it.idxN
		for i := 0; i < inner.N; i++ {
			collectInto(inner.At(i), w, arena)
		}
	case KStepNest:
		cur := it.stepN.Gen()
		for sub, ok := cur(); ok; sub, ok = cur() {
			collectInto(sub, w, arena)
		}
	default:
		panic("iter: bad kind")
	}
}

// Reduce folds the iterator left-to-right with worker w from initial
// accumulator z, consuming each nesting level as one loop (the generic form
// of paper Fig. 2's sum).
func Reduce[T, A any](it Iter[T], z A, w func(A, T) A) A {
	var arena []T
	return reduceInto(it, z, w, &arena)
}

// reduceInto is Reduce's loop nest, the arena threaded through every level.
func reduceInto[T, A any](it Iter[T], acc A, w func(A, T) A, arena *[]T) A {
	switch it.kind {
	case KIdxFlat:
		return foldIdx(it.idx, acc, w, arena)
	case KIdxFilter:
		fx := it.fidx
		if out, ok := foldBlocks(fx.N, fx.fast, acc, w, arena); ok {
			return out
		}
		for i := 0; i < fx.N; i++ {
			if v, ok := fx.At(i); ok {
				acc = w(acc, v)
			}
		}
		return acc
	case KStepFlat:
		return FoldStep(it.step, acc, w)
	case KIdxNest:
		inner := it.idxN
		for i := 0; i < inner.N; i++ {
			acc = reduceInto(inner.At(i), acc, w, arena)
		}
		return acc
	case KStepNest:
		return FoldStep(it.stepN, acc, func(a A, inner Iter[T]) A { return reduceInto(inner, a, w, arena) })
	}
	panic("iter: bad kind")
}

// Number is re-exported from array's constraint set for the numeric
// reductions. Defined here so iter has no dependency on array.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Sum adds all elements (paper Fig. 2's sum). This is the consumer the
// block engine specializes hardest: slice-backed pipelines reduce with a
// monomorphic loop over the backing array (no per-element calls at all),
// block-capable pipelines pay one kernel call per BlockSize elements and
// reduce each buffer with the same monomorphic loop, and nests recurse so
// slice-backed inner loops keep the fast path.
func Sum[T Number](it Iter[T]) T {
	var zero T
	var arena []T
	return sumInto(zero, it, &arena)
}

// sumInto folds it's elements into acc left-to-right. Every path threads
// the caller's accumulator through each block and inner iterator (rather
// than summing each from zero and adding partials), so the addition tree is
// the stepper's and floating-point sums agree with it bit-for-bit. A nest
// shares one arena: block-driven inner pipelines stage through it instead
// of allocating a buffer per outer element (the dominant cost of deep
// concatMap nests), and producers with no block path run an inline At loop
// — the closure a Reduce would build per inner iterator costs more than a
// handful of elements' worth of work.
func sumInto[T Number](acc T, it Iter[T], arena *[]T) T {
	switch it.kind {
	case KIdxFlat:
		ix := it.idx
		if f := ix.fast; f != nil {
			if f.mapSrc != nil {
				// Map chain: one pass over the source, one indirect call per
				// user function per element — the raw-loop shape up to those
				// calls, with no buffer at all.
				return sumChain(acc, f.mapSrc, f.mapFns)
			}
			if r := redOf(f); r != nil {
				// Fused reduction kernel (fuse.go): fold straight off the
				// pipeline's source arrays, no staging buffer at all.
				return r(acc, f.redOff, f.redOff+ix.N)
			}
			if out, ok := sumBlocks(acc, ix.N, f, arena); ok {
				return out
			}
		}
		at := ix.At
		for i := 0; i < ix.N; i++ {
			acc += at(i)
		}
		return acc
	case KIdxFilter:
		fx := it.fidx
		if f := fx.fast; f != nil {
			if f.pred != nil {
				// Pure filter of a slice: test each element where it lies —
				// no compaction, no staging buffer, same loop as raw code.
				pred := f.pred
				for _, v := range f.back {
					if pred(v) {
						acc += v
					}
				}
				return acc
			}
			if out, ok := sumBlocks(acc, fx.N, f, arena); ok {
				return out
			}
		}
		for i := 0; i < fx.N; i++ {
			if v, ok := fx.At(i); ok {
				acc += v
			}
		}
		return acc
	case KIdxNest:
		inner := it.idxN
		for i := 0; i < inner.N; i++ {
			acc = sumInto(acc, inner.At(i), arena)
		}
		return acc
	}
	return reduceInto(it, acc, func(a, v T) T { return a + v }, arena)
}

// sumBlocks folds a block producer into acc; ok is false when the driver
// found no block path. It is its own function so the accumulator its body
// captures is not the one sumInto's inline loops keep in a register.
func sumBlocks[T Number](acc T, n int, f *fastPath[T], arena *[]T) (T, bool) {
	ok := drive(n, f, arena, func(b []T) { acc = sumSliceFrom(acc, b) })
	return acc, ok
}

// Count returns the number of elements the iterator yields. Flat indexers
// know their count statically; nests sum inner counts so slice-backed inner
// loops stay cheap; filters count survivors block-wise when they can.
func Count[T any](it Iter[T]) int {
	var arena []T
	return countInto(it, &arena)
}

// countInto is Count's loop nest, the arena threaded through every level.
func countInto[T any](it Iter[T], arena *[]T) int {
	switch it.kind {
	case KIdxFlat:
		return it.idx.N
	case KIdxNest:
		inner := it.idxN
		total := 0
		for i := 0; i < inner.N; i++ {
			total += countInto(inner.At(i), arena)
		}
		return total
	case KIdxFilter:
		fx := it.fidx
		blocks := 0
		if drive(fx.N, fx.fast, arena, func(b []T) { blocks += len(b) }) {
			return blocks
		}
		total := 0
		for i := 0; i < fx.N; i++ {
			if _, ok := fx.At(i); ok {
				total++
			}
		}
		return total
	}
	return reduceInto(it, 0, func(n int, _ T) int { return n + 1 }, arena)
}

// ToSlice materializes the iterator into a fresh slice. Producers with a
// statically known extent are materialized into exactly-sized storage: flat
// indexers fill the output array in place (block kernels write their blocks
// directly into it, slice-backed inputs are a single copy), and filters
// append block-compacted survivors into a capacity-N buffer. Only nests and
// steppers, whose lengths are dynamic, fall back to append-growth.
func ToSlice[T any](it Iter[T]) []T {
	switch it.kind {
	case KIdxFlat:
		out := make([]T, it.idx.N)
		FillRange(out, it, 0)
		return out
	case KIdxFilter:
		fx := it.fidx
		var arena []T
		packed := make([]T, 0, fx.N)
		if drive(fx.N, fx.fast, &arena, func(b []T) { packed = append(packed, b...) }) {
			return packed
		}
		out := packed // a local copy: the closure above holds packed by reference
		for i := 0; i < fx.N; i++ {
			if v, ok := fx.At(i); ok {
				out = append(out, v)
			}
		}
		return out
	}
	var out []T
	Collect(it).RunInto(&out)
	return out
}

// OuterLen reports the extent of the outermost loop, which is the number of
// units the parallel partitioner can split. Stepper-rooted iterators have
// no statically known extent and report (0, false).
func (it Iter[T]) OuterLen() (int, bool) {
	switch it.kind {
	case KIdxFlat:
		return it.idx.N, true
	case KIdxNest:
		return it.idxN.N, true
	case KIdxFilter:
		return it.fidx.N, true
	}
	return 0, false
}

// CanSplit reports whether the iterator's outermost loop is an indexer and
// therefore partitionable across parallel tasks.
func (it Iter[T]) CanSplit() bool {
	return it.kind == KIdxFlat || it.kind == KIdxNest || it.kind == KIdxFilter
}

// Split restricts the iterator to outer indices [r.Lo, r.Hi). It panics if
// the iterator is not splittable; callers gate on CanSplit. Parallel
// consumers give each task one split and reduce the per-task results.
func Split[T any](it Iter[T], r domain.Range) Iter[T] {
	switch it.kind {
	case KIdxFlat:
		out := IdxFlat(SliceIdx(it.idx, r.Lo, r.Hi))
		out.hint = it.hint
		return out
	case KIdxNest:
		out := IdxNest(SliceIdx(it.idxN, r.Lo, r.Hi))
		out.hint = it.hint
		return out
	case KIdxFilter:
		fx := it.fidx
		if r.Lo < 0 || r.Hi > fx.N || r.Lo > r.Hi {
			panic(fmt.Sprintf("iter: Split [%d,%d) of %d", r.Lo, r.Hi, fx.N))
		}
		sub := FIdx[T]{N: r.Len(), fast: fx.fast.slice(r.Lo, r.Hi), At: func(i int) (T, bool) {
			return fx.At(r.Lo + i)
		}}
		out := IdxFilter(sub)
		out.hint = it.hint
		return out
	}
	panic(fmt.Sprintf("iter: Split of non-splittable %v iterator", it.kind))
}
