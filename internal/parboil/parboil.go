// Package parboil hosts the four Parboil benchmarks the paper evaluates
// (§4): mri-q, sgemm, tpacf, and cutcp, each in its own subpackage with a
// deterministic input generator, a sequential C-style kernel (the
// speedup-1.0 baseline), and Triolet, Eden, and C+MPI+OpenMP-style
// distributed implementations. This parent package carries the shared
// utilities: seeded input randomness and floating-point result comparison.
package parboil

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// NewRand returns a deterministic generator for benchmark inputs. All
// generators take explicit seeds so every implementation of a benchmark
// consumes bit-identical inputs.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two equal-length float32 slices. It panics on length mismatch — a shape
// error, not a tolerance question.
func MaxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("parboil: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	worst := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// MaxRelDiff returns the largest elementwise relative difference
// |a-b| / max(|a|, |b|, floor) between two equal-length slices; floor
// guards tiny denominators. Tests should not pair this with an ad-hoc
// epsilon: tolerance/floor pairs live in internal/diffcheck's shared
// tolerance table (e.g. diffcheck.TolFloatSum's RelDiff and Floor).
func MaxRelDiff(a, b []float32, floor float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("parboil: MaxRelDiff length mismatch %d vs %d", len(a), len(b)))
	}
	worst := 0.0
	for i := range a {
		av, bv := float64(a[i]), float64(b[i])
		den := math.Max(math.Max(math.Abs(av), math.Abs(bv)), floor)
		if d := math.Abs(av-bv) / den; d > worst {
			worst = d
		}
	}
	return worst
}

// EqualInt64 reports whether two histograms are identical. Integer
// histograms must match exactly across implementations — bin counts do not
// round.
func EqualInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
