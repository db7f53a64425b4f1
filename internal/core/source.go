package core

import (
	"triolet/internal/domain"
)

// DistSource describes distributable input data, separating data
// distribution from work distribution (paper §3.5): the outer loop has
// Tasks units of work, and Slice extracts exactly the data that tasks
// [r.Lo, r.Hi) read, as a serializable value of type S. The distributed
// skeletons block-partition tasks across nodes and ship each node its
// slice — never the whole input. The master's own slice is not shipped:
// its kernel reads Slice's result, and the aux value, by reference, and a
// worker's are views of the bytes that arrived, so a kernel must not write
// either (a view such as SliceSource's aliases the caller's data).
type DistSource[S any] interface {
	// Tasks is the extent of the distributable outer loop.
	Tasks() int
	// Slice extracts the input data used by tasks [r.Lo, r.Hi).
	Slice(r domain.Range) S
}

// FuncSource adapts a count and a slicing function to a DistSource.
type FuncSource[S any] struct {
	N       int
	SliceFn func(r domain.Range) S
}

// Tasks implements DistSource.
func (f FuncSource[S]) Tasks() int { return f.N }

// Slice implements DistSource.
func (f FuncSource[S]) Slice(r domain.Range) S { return f.SliceFn(r) }

// SliceSource distributes a plain slice: task i reads element i, so node
// slices are contiguous subslices (the paper's common case for 1-D array
// traversals). The payload type S is []T itself.
func SliceSource[T any](xs []T) DistSource[[]T] {
	return FuncSource[[]T]{
		N:       len(xs),
		SliceFn: func(r domain.Range) []T { return xs[r.Lo:r.Hi] },
	}
}

// DistSource2 is the two-dimensional analog: tasks form a Dom()-shaped
// grid, and SliceRect extracts the data read by one rectangular block of
// tasks — e.g. the rows of A and rows of Bᵀ that one output block of a
// matrix product needs (paper §2's outerproduct decomposition).
type DistSource2[S any] interface {
	// Dom is the 2-D task domain.
	Dom() domain.Dim2
	// SliceRect extracts the input data used by the block r of tasks.
	SliceRect(r domain.Rect) S
}

// FuncSource2 adapts a domain and a rectangle-slicing function to a
// DistSource2.
type FuncSource2[S any] struct {
	D       domain.Dim2
	SliceFn func(r domain.Rect) S
}

// Dom implements DistSource2.
func (f FuncSource2[S]) Dom() domain.Dim2 { return f.D }

// SliceRect implements DistSource2.
func (f FuncSource2[S]) SliceRect(r domain.Rect) S { return f.SliceFn(r) }
