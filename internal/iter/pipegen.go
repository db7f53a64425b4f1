package iter

// Declarative pipeline descriptions: a pipeline is a seed slice plus a
// sequence of PipeOps, each op a randomly parameterizable skeleton
// operation. The encoding started life inside random_pipeline_test.go as
// the generative property-test driver; it is a library because the same
// description now feeds three consumers that must agree on its meaning:
//
//   - the in-package property tests (random pipelines vs. the slice
//     reference interpreter, every consumer vs. the stepper);
//   - the cross-mode differential oracle (internal/diffcheck), which ships
//     PipeOps across the virtual cluster fabric and rebuilds the pipeline
//     on every node — the ops are three plain bytes precisely so they
//     serialize trivially, standing in for Triolet's serialized closures;
//   - fuzz targets, which decode op streams from raw corpus bytes.
//
// Every op keeps its output a total function of its input slice: the
// reference interpreter (ApplyPipeOpRef) is the single source of truth for
// what a pipeline "means", and every execution mode is diffed against it.

// PipeOpKinds is the number of distinct operation kinds a PipeOp.Kind byte
// selects among (interpreted modulo PipeOpKinds).
const PipeOpKinds = 7

// PipeOp is one pipeline operation, driven by two parameter bytes. The
// zero value is a valid op (an affine map).
type PipeOp struct {
	Kind uint8
	A, B uint8
}

// ApplyPipeOp applies the op to the iterator side.
func ApplyPipeOp(op PipeOp, it Iter[int64]) Iter[int64] {
	switch op.Kind % PipeOpKinds {
	case 0: // map: affine
		k := int64(op.A%5) + 1
		c := int64(op.B % 7)
		return Map(func(x int64) int64 { return k*x + c }, it)
	case 1: // filter: residue class
		m := int64(op.A%3) + 2
		r := int64(op.B) % m
		return Filter(func(x int64) bool { return ((x%m)+m)%m == r }, it)
	case 2: // concatMap: expand into |x| % k values
		k := int64(op.A%3) + 2
		return ConcatMap(func(x int64) Iter[int64] {
			n := int(((x % k) + k) % k)
			return Map(func(j int) int64 { return x + int64(j) }, Range(n))
		}, it)
	case 3: // take
		return Take(int(op.A%40), it)
	case 4: // drop
		return Drop(int(op.A%10), it)
	case 5: // chain a small constant block
		extra := []int64{int64(op.A), int64(op.B), -3}
		return Chain(it, FromSlice(extra))
	default: // scan (running sum)
		return Scan(it, int64(op.B%4), func(a, v int64) int64 { return a + v })
	}
}

// ApplyPipeOpRef applies the same op to the reference slice — the
// sequential slice semantics every execution mode must reproduce.
func ApplyPipeOpRef(op PipeOp, xs []int64) []int64 {
	switch op.Kind % PipeOpKinds {
	case 0:
		k := int64(op.A%5) + 1
		c := int64(op.B % 7)
		out := make([]int64, len(xs))
		for i, x := range xs {
			out[i] = k*x + c
		}
		return out
	case 1:
		m := int64(op.A%3) + 2
		r := int64(op.B) % m
		var out []int64
		for _, x := range xs {
			if ((x%m)+m)%m == r {
				out = append(out, x)
			}
		}
		return out
	case 2:
		k := int64(op.A%3) + 2
		var out []int64
		for _, x := range xs {
			n := int(((x % k) + k) % k)
			for j := 0; j < n; j++ {
				out = append(out, x+int64(j))
			}
		}
		return out
	case 3:
		n := int(op.A % 40)
		if n > len(xs) {
			n = len(xs)
		}
		return xs[:n]
	case 4:
		n := int(op.A % 10)
		if n > len(xs) {
			n = len(xs)
		}
		return xs[n:]
	case 5:
		return append(append([]int64{}, xs...), int64(op.A), int64(op.B), -3)
	default:
		acc := int64(op.B % 4)
		out := make([]int64, len(xs))
		for i, x := range xs {
			acc += x
			out[i] = acc
		}
		return out
	}
}

// BuildPipeline constructs the iterator for a whole pipeline description.
func BuildPipeline(seed []int64, ops []PipeOp) Iter[int64] {
	it := FromSlice(seed)
	for _, op := range ops {
		it = ApplyPipeOp(op, it)
	}
	return it
}

// RefPipeline evaluates the whole pipeline under the reference slice
// semantics. limit > 0 bounds intermediate explosion (concatMap chains can
// grow geometrically): when any intermediate slice exceeds limit, RefPipeline
// returns (nil, false) and callers should skip the case.
func RefPipeline(seed []int64, ops []PipeOp, limit int) ([]int64, bool) {
	ref := seed
	for _, op := range ops {
		ref = ApplyPipeOpRef(op, ref)
		if limit > 0 && len(ref) > limit {
			return nil, false
		}
	}
	return ref, true
}
