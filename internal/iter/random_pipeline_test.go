package iter

import (
	"testing"
	"testing/quick"

	"triolet/internal/domain"
)

// Generative pipeline testing: random sequences of skeleton operations are
// applied simultaneously to an Iter and to a plain slice (the reference
// interpreter). Whatever the composition, the fused pipeline must agree
// with the slice semantics element-for-element, its Sum/Count consumers
// must agree, and — when the result is still splittable — block-split
// evaluation must recombine to the sequential result. This exercises the
// constructor case analysis (paper Fig. 2) across compositions no
// hand-written test enumerates.
//
// The op encoding and both interpreters live in pipegen.go, shared with the
// cross-mode differential oracle (internal/diffcheck).

func TestRandomPipelinesAgainstReference(t *testing.T) {
	prop := func(seed []int16, ops []PipeOp) bool {
		if len(ops) > 6 {
			ops = ops[:6] // concatMap chains can explode; bound depth
		}
		xs := make([]int64, len(seed))
		for i, v := range seed {
			xs[i] = int64(v % 100)
		}
		it := FromSlice(xs)
		ref := xs
		for _, op := range ops {
			it = ApplyPipeOp(op, it)
			ref = ApplyPipeOpRef(op, ref)
			if len(ref) > 50000 {
				return true // skip exploded cases
			}
		}
		got := ToSlice(it)
		if len(got) != len(ref) {
			t.Logf("length %d vs ref %d for ops %+v", len(got), len(ref), ops)
			return false
		}
		var sumGot, sumRef int64
		for i := range ref {
			if got[i] != ref[i] {
				t.Logf("element %d: %d vs %d for ops %+v", i, got[i], ref[i], ops)
				return false
			}
			sumRef += ref[i]
		}
		sumGot = Sum(it)
		if sumGot != sumRef {
			return false
		}
		if Count(it) != len(ref) {
			return false
		}
		// Split invariance for splittable results.
		if it.CanSplit() {
			n, _ := it.OuterLen()
			var split int64
			for _, r := range domain.BlockPartition(n, 3) {
				split += Sum(Split(it, r))
			}
			if split != sumRef {
				t.Logf("split sum %d vs %d for ops %+v", split, sumRef, ops)
				return false
			}
		}
		// The histogram consumers walk nests themselves (no Collect) and
		// must apply the reference's updates in the reference's order, bit
		// for bit.
		bin := func(v int64) int { return int(((v % 64) + 64) % 64) }
		wantH, wantW := make([]int64, 64), make([]float64, 64)
		for _, v := range ref {
			wantH[bin(v)]++
			wantW[bin(v)] += float64(v) * 0.1
		}
		gotH := Histogram(64, Map(bin, it))
		gotW := WeightedHistogram(64, Map(func(v int64) Bin[float64] {
			return Bin[float64]{I: bin(v), W: float64(v) * 0.1}
		}, it))
		for b := range wantH {
			if gotH[b] != wantH[b] || gotW[b] != wantW[b] {
				t.Logf("bin %d = %d / %v vs ref %d / %v for ops %+v",
					b, gotH[b], gotW[b], wantH[b], wantW[b], ops)
				return false
			}
		}
		// The pipeline must be repeatable: a second traversal yields the
		// same elements (steppers must be restartable).
		again := ToSlice(it)
		if len(again) != len(ref) {
			return false
		}
		for i := range ref {
			if again[i] != ref[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// The same generative check through the fold path (Any-driven early
// termination must never change which elements exist).
func TestRandomPipelinesFindAgreesWithReference(t *testing.T) {
	prop := func(seed []int16, ops []PipeOp, probe int16) bool {
		if len(ops) > 5 {
			ops = ops[:5]
		}
		xs := make([]int64, len(seed))
		for i, v := range seed {
			xs[i] = int64(v % 50)
		}
		it := FromSlice(xs)
		ref := xs
		for _, op := range ops {
			it = ApplyPipeOp(op, it)
			ref = ApplyPipeOpRef(op, ref)
			if len(ref) > 20000 {
				return true
			}
		}
		target := int64(probe % 50)
		wantIdx := -1
		for i, v := range ref {
			if v == target {
				wantIdx = i
				break
			}
		}
		got, ok := Find(func(v int64) bool { return v == target }, it)
		if ok != (wantIdx >= 0) {
			return false
		}
		return !ok || got == target
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// BuildPipeline/RefPipeline must agree with op-by-op application (they are
// the forms diffcheck and the fuzz targets consume).
func TestPipelineHelpersAgreeWithStepwiseApplication(t *testing.T) {
	prop := func(seed []int16, ops []PipeOp) bool {
		if len(ops) > 6 {
			ops = ops[:6]
		}
		xs := make([]int64, len(seed))
		for i, v := range seed {
			xs[i] = int64(v % 100)
		}
		ref, ok := RefPipeline(xs, ops, 50000)
		if !ok {
			return true
		}
		got := ToSlice(BuildPipeline(xs, ops))
		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
