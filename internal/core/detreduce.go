package core

import (
	"fmt"

	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/sched"
	"triolet/internal/serial"
)

// Deterministic reductions. The plain reduction skeletons are only
// associativity-deterministic: sched.ParallelReduce merges per-worker
// partials in steal order, and MapReduceOp splits the domain by node count,
// so a floating-point Sum changes in the last bits when the worker count,
// the steal schedule, or the node count changes. That is fine for the
// integer skeletons and tolerance-checked kernels, but it means "the same
// program" does not compute "the same answer" across execution modes — the
// exact property the differential oracle (internal/diffcheck) exists to
// enforce.
//
// The fix is to make the reduction tree a function of the domain alone:
//
//  1. the domain [0, n) is cut into fixed DetChunk-wide chunks at absolute
//     offsets (chunk k covers [k*DetChunk, (k+1)*DetChunk) ∩ [0, n)),
//  2. each chunk is folded sequentially in element order — the block and
//     per-element engines already agree bit-for-bit on an in-order fold,
//  3. chunk partials are combined by a fixed balanced pairwise tree over
//     the chunk vector (CombineTree).
//
// Which worker or node computes a chunk never changes what is added to
// what: distributing the chunks over 1, 2, 4, or 8 nodes (AlignedPartition
// keeps chunks whole) or any steal schedule yields bit-identical floats.

// DetChunk is the chunk width of deterministic reductions. It equals
// sched.BlockAlign (== iter.BlockSize) so chunk folds run full-width block
// kernels and pool splits never cut through a chunk; the pairing is
// asserted by a test.
const DetChunk = sched.BlockAlign

// CombineTree folds parts with a fixed balanced binary tree whose shape
// depends only on len(parts): adjacent pairs combine, then adjacent pair
// results, and so on; an odd trailing element is carried up unchanged.
// Reductions that must be bit-reproducible for floats use it in place of a
// schedule-dependent fold. combine need not be commutative: arguments keep
// their left-to-right order.
func CombineTree[A any](parts []A, id A, combine func(A, A) A) A {
	if len(parts) == 0 {
		return id
	}
	buf := append([]A(nil), parts...)
	for len(buf) > 1 {
		w := 0
		i := 0
		for ; i+1 < len(buf); i += 2 {
			buf[w] = combine(buf[i], buf[i+1])
			w++
		}
		if i < len(buf) {
			buf[w] = buf[i]
			w++
		}
		buf = buf[:w]
	}
	return buf[0]
}

// ChunkPartials folds each DetChunk-wide chunk of it's outer domain into a
// partial, in element order within the chunk, and returns the partials in
// chunk order. The partial values are independent of how the work is
// scheduled: a parallel run over the pool computes exactly the chunks a
// sequential run would. An unsplittable iterator yields a single partial
// covering the whole traversal.
func ChunkPartials[T, A any](pool *sched.Pool, it iter.Iter[T], id A, w func(A, T) A) []A {
	n, ok := it.OuterLen()
	if !ok || !it.CanSplit() {
		return []A{iter.Reduce(it, id, w)}
	}
	chunks := domain.ChunkPartition(n, DetChunk)
	partials := make([]A, len(chunks))
	leaf := func(i int) {
		partials[i] = iter.Reduce(iter.Split(it, chunks[i]), id, w)
	}
	if pool != nil && it.Hint() != iter.Sequential && len(chunks) > 1 {
		pool.ParallelFor(len(chunks), 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				leaf(i)
			}
		})
	} else {
		for i := range partials {
			leaf(i)
		}
	}
	return partials
}

// ReduceLocalDet is ReduceLocal with a schedule-independent result: the
// fold runs per chunk and the partials combine in a fixed tree, so two runs
// — any pool width, any steal schedule, block or per-element engine —
// produce bit-identical values even for floating-point accumulators.
// combine must be associative and id its identity, as for ReduceLocal.
func ReduceLocalDet[T, A any](pool *sched.Pool, it iter.Iter[T], id A, w func(A, T) A, combine func(A, A) A) A {
	return CombineTree(ChunkPartials(pool, it, id, w), id, combine)
}

// SumLocalDet adds the elements of it with a schedule-independent rounding:
// the deterministic counterpart of SumLocal for floating-point consumers
// that must agree across execution modes.
func SumLocalDet[T iter.Number](pool *sched.Pool, it iter.Iter[T]) T {
	var zero T
	return ReduceLocalDet(pool, it, zero,
		func(acc T, v T) T { return acc + v },
		func(a, b T) T { return a + b })
}

// chunkSum is one chunk's partial, keyed by its global chunk index so the
// reduction tree's rank topology cannot affect ordering: partial vectors
// merge by key, and only the master's final CombineTree adds floats.
type chunkSum struct {
	Chunk int
	V     float64
}

func chunkSumsCodec() serial.Codec[[]chunkSum] {
	return serial.Funcs[[]chunkSum]{
		Enc: func(w *serial.Writer, v []chunkSum) {
			w.Int(len(v))
			for _, c := range v {
				w.Int(c.Chunk)
				w.F64(c.V)
			}
		},
		Dec: func(r *serial.Reader) []chunkSum {
			n := r.Int()
			if n < 0 || n > r.Remaining()/16 {
				// Adversarial length header: exhaust the reader (flagging
				// its error state) instead of allocating n entries.
				for r.Err() == nil {
					r.U64()
				}
				return nil
			}
			out := make([]chunkSum, n)
			for i := range out {
				out[i] = chunkSum{Chunk: r.Int(), V: r.F64()}
			}
			return out
		},
	}
}

// mergeChunkSums merges two chunk-sorted partial vectors, preserving key
// order. Chunk keys are globally unique (chunks partition the domain), so
// this is pure concatenation-by-key: no float arithmetic happens here.
func mergeChunkSums(a, b []chunkSum) []chunkSum {
	out := make([]chunkSum, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Chunk <= b[j].Chunk {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// detSlice carries a node's input slice together with its global base
// offset, so the node can name its chunks globally.
type detSlice[S any] struct {
	base int
	val  S
}

func detSliceCodec[S any](sc serial.Codec[S]) serial.Codec[detSlice[S]] {
	return serial.Funcs[detSlice[S]]{
		Enc: func(w *serial.Writer, v detSlice[S]) {
			w.Int(v.base)
			sc.Encode(w, v.val)
		},
		Dec: func(r *serial.Reader) detSlice[S] {
			return detSlice[S]{base: r.Int(), val: sc.Decode(r)}
		},
	}
}

// detSource adapts a DistSource so each slice remembers its base offset.
type detSource[S any] struct{ src DistSource[S] }

func (d detSource[S]) Tasks() int { return d.src.Tasks() }
func (d detSource[S]) Slice(r domain.Range) detSlice[S] {
	return detSlice[S]{base: r.Lo, val: d.src.Slice(r)}
}

// DetSumOp is a distributed floating-point sum whose rounding is a
// function of the domain alone: Run on 1, 2, 4, or 8 nodes — and RunLocal
// on the master — produce bit-identical float64 results. It is the
// deterministic counterpart of a MapReduceOp whose combine is float
// addition, and the skeleton the differential oracle demands bit-equality
// from across its Par axis.
type DetSumOp[S any] struct {
	inner *MapReduceOp[detSlice[S], struct{}, []chunkSum]
}

// NewDetSum registers a deterministic distributed sum under name. mk builds
// the node-local float pipeline for a slice; its outer domain must be the
// slice's index space (splittable, one outer index per slice element) so
// chunk boundaries land at the same global offsets on every node count.
// base is the slice's global offset, for pipelines that need it. Call once
// at package init, like NewMapReduce.
func NewDetSum[S any](
	name string,
	sCodec serial.Codec[S],
	mk func(n *cluster.Node, slice S, base int) iter.Iter[float64],
) *DetSumOp[S] {
	kernel := func(n *cluster.Node, ds detSlice[S], _ struct{}) ([]chunkSum, error) {
		it := mk(n, ds.val, ds.base)
		nLocal, ok := it.OuterLen()
		if !ok || !it.CanSplit() {
			return nil, fmt.Errorf("core: %s: deterministic sum needs a splittable pipeline", name)
		}
		if nLocal > 0 && ds.base%DetChunk != 0 {
			return nil, fmt.Errorf("core: %s: slice base %d not chunk-aligned", name, ds.base)
		}
		partials := ChunkPartials(n.Pool, it, float64(0),
			func(a, v float64) float64 { return a + v })
		if nLocal == 0 {
			return nil, nil
		}
		out := make([]chunkSum, len(partials))
		firstChunk := ds.base / DetChunk
		for i, v := range partials {
			out[i] = chunkSum{Chunk: firstChunk + i, V: v}
		}
		return out, nil
	}
	op := NewMapReduce(name, detSliceCodec(sCodec), serial.Unit(), chunkSumsCodec(), kernel, mergeChunkSums)
	// Node boundaries must not cut through chunks: partition whole chunks.
	op.align = DetChunk
	return &DetSumOp[S]{op}
}

// Name reports the kernel's registered name.
func (op *DetSumOp[S]) Name() string { return op.inner.Name() }

// finish combines the gathered chunk partials — already merged in chunk
// order — with the fixed tree.
func finishDetSum(all []chunkSum) float64 {
	vals := make([]float64, len(all))
	for i, c := range all {
		vals[i] = c.V
	}
	return CombineTree(vals, 0, func(a, b float64) float64 { return a + b })
}

// Run executes the deterministic sum across the cluster.
func (op *DetSumOp[S]) Run(s *cluster.Session, src DistSource[S]) (float64, error) {
	all, err := op.inner.Run(s, detSource[S]{src: src}, struct{}{})
	if err != nil {
		return 0, err
	}
	return finishDetSum(all), nil
}

// RunLocal executes the same sum on the master only (the localpar hint).
// Chunk offsets and the combine tree are identical to a distributed run,
// so the result is bit-identical to Run at any node count.
func (op *DetSumOp[S]) RunLocal(s *cluster.Session, src DistSource[S]) (float64, error) {
	all, err := op.inner.RunLocal(s, detSource[S]{src: src}, struct{}{})
	if err != nil {
		return 0, err
	}
	return finishDetSum(all), nil
}
