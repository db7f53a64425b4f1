package iter

import (
	"strings"
	"testing"

	"triolet/internal/domain"
)

// Regression tests for sub-ranges at unaligned bases. The scheduler's
// alignSplit snaps split points to absolute BlockAlign multiples, but
// small seed blocks can still hand consumers ranges whose base is not a
// multiple of BlockSize — and distributed partitions cut wherever the node
// count dictates. The block representations must be base-agnostic: a split
// at any offset yields the stepper's elements through every consumer, and
// FillRange at an offset base writes exactly the right window.

func splitOffsets(n int) []domain.Range {
	bases := []int{0, 1, 77, BlockSize - 1, BlockSize, BlockSize + 1, 2*BlockSize - 1, 513, 1000}
	var out []domain.Range
	for _, lo := range bases {
		if lo > n {
			continue
		}
		for _, hi := range []int{lo, lo + 1, lo + 200, n - 3, n} {
			if hi >= lo && hi <= n {
				out = append(out, domain.Range{Lo: lo, Hi: hi})
			}
		}
	}
	return out
}

func TestSplitAtUnalignedOffsetsDriversAgree(t *testing.T) {
	const n = 2*BlockSize + 77
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(3*i - 1000)
	}
	// Splittable op sequences: flat, nested, and filtered outer kinds.
	pipelines := [][]PipeOp{
		nil,                     // raw slice
		{{Kind: 0, A: 2, B: 5}}, // map
		{{Kind: 1, A: 1, B: 0}}, // filter
		{{Kind: 2, A: 2, B: 0}}, // concatMap
		{{Kind: 0, A: 4, B: 1}, {Kind: 1, A: 2, B: 1}}, // map then filter
	}
	for pi, ops := range pipelines {
		it := BuildPipeline(xs, ops)
		if !it.CanSplit() {
			t.Fatalf("pipeline %d not splittable", pi)
		}
		if d := againstStepper(it, intProbe); d != "" {
			t.Fatalf("pipeline %d: %s", pi, d)
		}
	}
}

// FillRange at an offset base must write exactly dst's window of the outer
// domain, for the slice-backed, kernel and At-only paths.
func TestFillRangeAtOffsetBases(t *testing.T) {
	const n = 2*BlockSize + 77
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(7*i + 11)
	}
	for name, it := range fillRangeShapes(xs) {
		ref := stepRef(it, intProbe).slice
		for _, r := range splitOffsets(n) {
			dst := make([]int64, r.Len())
			FillRange(dst, it, r.Lo)
			if !sameSlice(dst, ref[r.Lo:r.Hi]) {
				t.Fatalf("%s base %d: FillRange wrote %v, want %v", name, r.Lo, dst, ref[r.Lo:r.Hi])
			}
		}
	}
}

// fillRangeShapes is one flat producer per FillRange path over xs.
func fillRangeShapes(xs []int64) map[string]Iter[int64] {
	return map[string]Iter[int64]{
		"slice-backed": FromSlice(xs),
		"mapped":       Map(func(v int64) int64 { return 2*v - 3 }, FromSlice(xs)),
		"tabulated":    Map(func(i int) int64 { return int64(i) * int64(i) }, Range(len(xs))),
		"at-only":      IdxFlat(Idx[int64]{N: len(xs), At: func(i int) int64 { return xs[i] + 1 }}),
	}
}

// A window that leaves the domain is the caller's bug, and every producer
// shape must say so the same way: the slice-backed path used to copy a
// prefix and leave zeros, the kernel path sliced out of range inside a
// kernel, and the At path panicked in user code.
func TestFillRangePanicsOutsideDomain(t *testing.T) {
	xs := make([]int64, 100)
	for name, it := range fillRangeShapes(xs) {
		for _, w := range []struct{ lo, n int }{{60, 41}, {100, 1}, {-1, 5}, {101, 0}} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "iter: FillRange [") {
						t.Fatalf("%s: FillRange(lo=%d, n=%d) of 100 recovered %q, want the bounds panic", name, w.lo, w.n, msg)
					}
				}()
				FillRange(make([]int64, w.n), it, w.lo)
			}()
		}
	}
}
