package core

import (
	"fmt"

	"triolet/internal/array"
	"triolet/internal/cluster"
	"triolet/internal/serial"
)

// BuildArrayOp is a registered distributed array-building skeleton: tasks
// [0, N) each produce one output element; the master partitions tasks
// across nodes, each node computes its contiguous output section from its
// input slice, and sections are gathered in rank order into the final
// array. mri-q's image construction uses this shape (paper §4.2).
type BuildArrayOp[S, A any, E any] struct {
	*collective[S, A, []E]
}

// NewBuildArray registers a distributed array builder under name. The
// kernel must return exactly one element per task in its slice.
func NewBuildArray[S, A any, E any](
	name string,
	sCodec serial.Codec[S],
	aCodec serial.Codec[A],
	eCodec serial.Codec[[]E],
	kernel func(n *cluster.Node, slice S, aux A) ([]E, error),
) *BuildArrayOp[S, A, E] {
	return &BuildArrayOp[S, A, E]{newCollective(name, sCodec, aCodec, eCodec, kernel, nil)}
}

// Run executes the skeleton from the master and returns the assembled
// array of src.Tasks() elements.
func (op *BuildArrayOp[S, A, E]) Run(s *cluster.Session, src DistSource[S], aux A) ([]E, error) {
	sections, part, err := op.runSource(s, src, aux)
	if err != nil {
		return nil, err
	}
	out := make([]E, 0, src.Tasks())
	for i, sec := range sections {
		if len(sec) != part[i].Len() {
			return nil, fmt.Errorf("core: %s node %d returned %d elements for %d tasks",
				op.name, i, len(sec), part[i].Len())
		}
		out = append(out, sec...)
	}
	return out, nil
}

// Build2DOp is the two-dimensional distributed builder: the output domain
// is grid-partitioned into one rectangular block per node, each node
// receives only the input slice its block reads (e.g. the matrix rows
// spanning the block, via a DistSource2 built from rows/outerproduct) and
// returns its block, and blocks are assembled at the master. This is the
// paper's two-line sgemm decomposition (paper §2, §4.3).
type Build2DOp[S, A any, E any] struct {
	*collective[S, A, array.Matrix[E]]
}

// NewBuild2D registers a distributed 2-D block builder under name. The
// kernel must return a matrix of exactly its block's shape.
func NewBuild2D[S, A any, E any](
	name string,
	sCodec serial.Codec[S],
	aCodec serial.Codec[A],
	mCodec serial.Codec[array.Matrix[E]],
	kernel func(n *cluster.Node, slice S, aux A) (array.Matrix[E], error),
) *Build2DOp[S, A, E] {
	return &Build2DOp[S, A, E]{newCollective(name, sCodec, aCodec, mCodec, kernel, nil)}
}

// Run executes the skeleton from the master and returns the assembled
// src.Dom()-shaped matrix.
func (op *Build2DOp[S, A, E]) Run(s *cluster.Session, src DistSource2[S], aux A) (array.Matrix[E], error) {
	var zero array.Matrix[E]
	dom := src.Dom()
	rects := dom.GridPartition(dom.GridShape(s.Node().Nodes()))
	blocks, err := op.run(s, func() []S {
		parts := make([]S, len(rects))
		for i, r := range rects {
			parts[i] = src.SliceRect(r)
		}
		return parts
	}, aux)
	if err != nil {
		return zero, err
	}
	out := array.NewMatrix[E](dom.H, dom.W)
	for i, b := range blocks {
		if b.H != rects[i].Rows.Len() || b.W != rects[i].Cols.Len() {
			return zero, fmt.Errorf("core: %s node %d returned %dx%d block for %v",
				op.name, i, b.H, b.W, rects[i])
		}
		out.CopyRect(rects[i], b)
	}
	return out, nil
}
