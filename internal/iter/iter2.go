package iter

import (
	"fmt"

	"triolet/internal/array"
	"triolet/internal/domain"
)

// Idx2 is a two-dimensional indexer: a virtual h×w collection whose element
// at row y, column x is computed by At(y, x). It is the Idx Dim2 instance
// of the paper's domain-generalized indexer (§3.3): keeping both
// coordinates avoids the division/modulus a flattened 1-D encoding would
// need to recover 2-D indices.
type Idx2[T any] struct {
	Dom domain.Dim2
	At  func(y, x int) T
}

// Iter2 is the two-dimensional iterator. Per the paper, only the IdxFlat
// constructor generalizes to multidimensional domains (variable-length
// traversals do not preserve dimensionality), so Iter2 is an indexer plus a
// parallelism hint.
type Iter2[T any] struct {
	idx  Idx2[T]
	hint ParHint
}

// Idx2Flat wraps a 2-D indexer as a 2-D iterator.
func Idx2Flat[T any](ix Idx2[T]) Iter2[T] { return Iter2[T]{idx: ix} }

// Dom reports the iterator's index domain.
func (it Iter2[T]) Dom() domain.Dim2 { return it.idx.Dom }

// Hint reports the iterator's parallelism hint.
func (it Iter2[T]) Hint() ParHint { return it.hint }

// At computes the element at (y, x).
func (it Iter2[T]) At(y, x int) T { return it.idx.At(y, x) }

// Par2 marks a 2-D iterator for distributed + thread parallelism.
func Par2[T any](it Iter2[T]) Iter2[T] { it.hint = ClusterPar; return it }

// LocalPar2 marks a 2-D iterator for thread parallelism within one node.
func LocalPar2[T any](it Iter2[T]) Iter2[T] { it.hint = NodePar; return it }

// ArrayRange2 iterates over all (y, x) index pairs of the h×w domain in
// row-major order — the paper's arrayRange((0,0),(h,w)), used to express
// transposition as a gather.
func ArrayRange2(d domain.Dim2) Iter2[domain.Ix2] {
	return Idx2Flat(Idx2[domain.Ix2]{Dom: d, At: func(y, x int) domain.Ix2 {
		return domain.Ix2{Y: y, X: x}
	}})
}

// Map2 applies f to every element of a 2-D iterator.
func Map2[T, U any](f func(T) U, it Iter2[T]) Iter2[U] {
	at := it.idx.At
	out := Idx2Flat(Idx2[U]{Dom: it.idx.Dom, At: func(y, x int) U { return f(at(y, x)) }})
	out.hint = it.hint
	return out
}

// ZipWith2 combines corresponding elements of two 2-D iterators over the
// intersection of their domains.
func ZipWith2[A, B, C any](f func(A, B) C, a Iter2[A], b Iter2[B]) Iter2[C] {
	atA, atB := a.idx.At, b.idx.At
	out := Idx2Flat(Idx2[C]{
		Dom: a.idx.Dom.Intersect(b.idx.Dom),
		At:  func(y, x int) C { return f(atA(y, x), atB(y, x)) },
	})
	out.hint = mergeHint(a.hint, b.hint)
	return out
}

// SliceRect restricts a 2-D iterator to the rectangle r, re-basing indices
// at (0,0). Block-decomposed parallel loops hand each task a SliceRect.
func SliceRect[T any](it Iter2[T], r domain.Rect) Iter2[T] {
	d := it.idx.Dom
	if r.Rows.Lo < 0 || r.Rows.Hi > d.H || r.Cols.Lo < 0 || r.Cols.Hi > d.W {
		panic(fmt.Sprintf("iter: SliceRect %v outside %v", r, d))
	}
	at := it.idx.At
	out := Idx2Flat(Idx2[T]{
		Dom: domain.Dim2{H: r.Rows.Len(), W: r.Cols.Len()},
		At:  func(y, x int) T { return at(r.Rows.Lo+y, r.Cols.Lo+x) },
	})
	out.hint = it.hint
	return out
}

// Linearize flattens a 2-D iterator to a 1-D iterator in row-major order,
// so 1-D consumers (Sum, Reduce, Collect) apply.
func Linearize[T any](it Iter2[T]) Iter[T] {
	d := it.idx.Dom
	at := it.idx.At
	out := IdxFlat(Idx[T]{N: d.Size(), At: func(i int) T {
		return at(i/d.W, i%d.W)
	}})
	out.hint = it.hint
	return out
}

// RowsOf reinterprets a 2-D iterator as a 1-D iterator over rows, each row
// itself a 1-D iterator (the paper's rows function, §2). Used with
// OuterProduct to express 2-D block decompositions.
func RowsOf[T any](it Iter2[T]) Iter[Iter[T]] {
	d := it.idx.Dom
	at := it.idx.At
	return IdxFlat(Idx[Iter[T]]{N: d.H, At: func(y int) Iter[T] {
		return IdxFlat(Idx[T]{N: d.W, At: func(x int) T { return at(y, x) }})
	}})
}

// OuterProduct pairs every element of a with every element of b, producing
// the 2-D iterator whose (y, x) element is (a[y], b[x]) — the paper's
// outerproduct (§2). a and b must be flat (splittable) iterators, which is
// what rows produces; the 2-D block structure is what lets the distributed
// skeleton send each task only the rows its block needs.
func OuterProduct[A, B any](a Iter[A], b Iter[B]) Iter2[Pair[A, B]] {
	if a.kind != KIdxFlat || b.kind != KIdxFlat {
		panic("iter: OuterProduct requires flat indexer operands")
	}
	ia, ib := a.idx, b.idx
	out := Idx2Flat(Idx2[Pair[A, B]]{
		Dom: domain.Dim2{H: ia.N, W: ib.N},
		At:  func(y, x int) Pair[A, B] { return Pair[A, B]{Fst: ia.At(y), Snd: ib.At(x)} },
	})
	out.hint = mergeHint(a.hint, b.hint)
	return out
}

// Reduce2 folds all elements in row-major order.
func Reduce2[T, A any](it Iter2[T], z A, w func(A, T) A) A {
	d := it.idx.Dom
	at := it.idx.At
	acc := z
	for y := 0; y < d.H; y++ {
		for x := 0; x < d.W; x++ {
			acc = w(acc, at(y, x))
		}
	}
	return acc
}

// BuildInto evaluates the rectangle r of the iterator into the matching
// rectangle of dst (dst shares the iterator's domain shape). Threaded and
// distributed builders evaluate disjoint rectangles concurrently; in-place
// writes at the sequential level are the paper's §3.4 requirement.
func BuildInto[T any](dst Matrix2[T], it Iter2[T], r domain.Rect) {
	at := it.idx.At
	for y := r.Rows.Lo; y < r.Rows.Hi; y++ {
		row := dst.Row(y)
		for x := r.Cols.Lo; x < r.Cols.Hi; x++ {
			row[x] = at(y, x)
		}
	}
}

// Build materializes the whole 2-D iterator into a fresh matrix,
// sequentially.
func Build[T any](it Iter2[T]) Matrix2[T] {
	d := it.idx.Dom
	m := Matrix2[T]{H: d.H, W: d.W, Data: make([]T, d.Size())}
	BuildInto(m, it, d.Whole())
	return m
}

// Matrix2 is array.Matrix under the name iter's 2-D consumers use for it:
// one row-major matrix type serves iterators, skeletons and wire codecs, so
// no seam between them converts.
type Matrix2[T any] = array.Matrix[T]

// MatrixRows iterates over a matrix's rows as zero-copy slice views — the
// post-fusion form of the paper's rows function, where each row iterator
// has been inlined down to direct contiguous array access.
func MatrixRows[T any](m Matrix2[T]) Iter[[]T] {
	return IdxFlat(Idx[[]T]{N: m.H, At: m.Row})
}

// FromMatrix2 iterates over an existing matrix.
func FromMatrix2[T any](m Matrix2[T]) Iter2[T] {
	return Idx2Flat(Idx2[T]{
		Dom: domain.Dim2{H: m.H, W: m.W},
		At:  func(y, x int) T { return m.Data[y*m.W+x] },
	})
}
