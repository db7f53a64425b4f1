package core

import (
	"fmt"

	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/serial"
)

// MapReduceOp is a registered distributed map-reduce skeleton: the master
// partitions a DistSource across nodes, each node computes a partial result
// of type R from its slice (typically with a fused, thread-parallel
// iterator pipeline), and partials are combined up a reduction tree. This
// one skeleton covers the paper's par-hinted reductions: dot products,
// tpacf's histogram sums, cutcp's potential grid.
//
// S is the per-node input slice, A an auxiliary value broadcast to every
// node (e.g. mri-q's sample array, tpacf's observed data set), R the
// result.
type MapReduceOp[S, A, R any] struct {
	*collective[S, A, R]
	// partition cuts the task range into one range per node. The
	// deterministic reduction skeletons use a chunk-aligned partition so
	// fixed-offset chunks never straddle two nodes.
	partition func(tasks, nodes int) []domain.Range
}

// NewMapReduce registers a distributed map-reduce kernel under name and
// returns its typed handle. Call once per kernel at package init — the
// name is the serialized identity of the kernel, standing in for Triolet's
// serialized closures. combine must be associative.
func NewMapReduce[S, A, R any](
	name string,
	sCodec serial.Codec[S],
	aCodec serial.Codec[A],
	rCodec serial.Codec[R],
	kernel func(n *cluster.Node, slice S, aux A) (R, error),
	combine func(R, R) R,
) *MapReduceOp[S, A, R] {
	return newMapReduce(name, sCodec, aCodec, rCodec, kernel, combine, domain.BlockPartition)
}

// newMapReduce is NewMapReduce with the node partition chosen by the caller.
func newMapReduce[S, A, R any](
	name string,
	sCodec serial.Codec[S],
	aCodec serial.Codec[A],
	rCodec serial.Codec[R],
	kernel func(n *cluster.Node, slice S, aux A) (R, error),
	combine func(R, R) R,
	partition func(tasks, nodes int) []domain.Range,
) *MapReduceOp[S, A, R] {
	return &MapReduceOp[S, A, R]{
		collective: newCollective(name, sCodec, aCodec, rCodec, kernel, combine),
		partition:  partition,
	}
}

// Run executes the skeleton from the master: partitions src's tasks across
// nodes, ships slices and the aux broadcast, computes the master's own
// share inline, and returns the tree-reduced result.
func (op *MapReduceOp[S, A, R]) Run(s *cluster.Session, src DistSource[S], aux A) (R, error) {
	var zero R
	totals, err := op.run(s, func() []S {
		return sliceRanges(src, op.partition(src.Tasks(), s.Node().Nodes()))
	}, aux)
	if err != nil {
		return zero, err
	}
	if len(totals) != 1 {
		return zero, fmt.Errorf("core: %s reduce produced no result at root", op.name)
	}
	return totals[0], nil
}

// RunLocal executes the same kernel without leaving the master node,
// implementing the localpar hint at the skeleton level: thread parallelism
// only, no serialization, no fabric traffic.
func (op *MapReduceOp[S, A, R]) RunLocal(s *cluster.Session, src DistSource[S], aux A) (R, error) {
	whole := src.Slice(domain.Range{Lo: 0, Hi: src.Tasks()})
	return op.kernel(s.Node(), whole, aux)
}
