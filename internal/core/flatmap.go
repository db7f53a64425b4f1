package core

import (
	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/sched"
	"triolet/internal/serial"
)

// FlatMapOp is the distributed variable-length-output skeleton: each task
// may produce any number of output elements (the filter/concatMap shape).
// Nodes pack their survivors into arrays with collectors (paper §3.1's
// collector use: "packing variable-length output skeletons' results into
// an array") and the master concatenates sections in rank order, so the
// output order equals the sequential order even though per-node output
// sizes are only known at run time.
type FlatMapOp[S, A any, E any] struct {
	*collective[S, A, []E]
}

// NewFlatMap registers a distributed variable-length producer under name.
// Unlike NewBuildArray, the kernel may return any number of elements for
// its slice. A non-nil release gets each section back (collective.release).
func NewFlatMap[S, A any, E any](
	name string,
	sCodec serial.Codec[S],
	aCodec serial.Codec[A],
	eCodec serial.Codec[[]E],
	kernel func(n *cluster.Node, slice S, aux A) ([]E, error),
	release func(n *cluster.Node, section []E),
) *FlatMapOp[S, A, E] {
	c := newCollective(name, sCodec, aCodec, eCodec, kernel, nil)
	c.release = release
	return &FlatMapOp[S, A, E]{c}
}

// Run executes the skeleton and returns the concatenated output.
func (op *FlatMapOp[S, A, E]) Run(s *cluster.Session, src DistSource[S], aux A) ([]E, error) {
	sections, _, err := op.runSource(s, src, aux)
	if err != nil {
		return nil, err
	}
	if op.release != nil {
		defer op.release(s.Node(), sections[0])
	}
	return concat(sections), nil
}

// concat joins sections in order into one exactly-sized slice.
func concat[T any](sections [][]T) []T {
	total := 0
	for _, sec := range sections {
		total += len(sec)
	}
	out := make([]T, 0, total)
	for _, sec := range sections {
		out = append(out, sec...)
	}
	return out
}

// CollectLocal packs a (possibly irregular) iterator into a slice on one
// node, preserving sequential order, with the counting pack when the outer
// loop splits and the hint asks for threads. For irregular iterators the
// per-range output sizes are dynamic, so this is the node-level equivalent
// of FlatMapOp's pack-and-concatenate: per-range buffers collected in
// range order.
func CollectLocal[T any](pool *sched.Pool, it iter.Iter[T], grain int) []T {
	n, splittable := it.OuterLen()
	if it.Hint() == iter.Sequential || !splittable || pool == nil {
		return iter.ToSlice(it)
	}
	if grain <= 0 {
		grain = sched.DefaultGrain
	}
	blocks := domain.ChunkPartition(n, grain)
	parts := make([][]T, len(blocks))
	pool.ParallelFor(len(blocks), 1, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			// ToSlice routes each range through the block engine: flat
			// ranges are filled in place into exactly-sized storage and
			// filtered ranges append block-compacted survivors, instead of
			// growing a buffer from nil one element at a time.
			parts[b] = iter.ToSlice(iter.Split(it, blocks[b]))
		}
	})
	return concat(parts)
}
