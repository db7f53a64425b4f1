package core

import (
	"math"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/sched"
	"triolet/internal/serial"
)

// Deterministic-reduction tests: DetChunk and CombineTree, the pieces of a
// float reduction whose tree depends on the domain alone (the cross-mode
// oracle's chunked executors in internal/diffcheck). The rank-partitioned
// float sum demonstrably is not such a reduction — that divergence is the
// oracle's negative control.

// the domain alone, so floating-point sums are bit-identical across pool
// widths, steal schedules, node counts, and the localpar/par axis. The
// legacy rank-partitioned float sum demonstrably is not — that divergence
// is the bug the deterministic skeletons fix, and the cross-mode oracle
// (internal/diffcheck) now enforces the fixed behavior.

// detChunk pairing: core's chunk width must equal iter's block size (and
// sched.BlockAlign, by construction) so chunk folds run full-width block
// kernels and pool splits never cut through a chunk.
func TestDetChunkMatchesIterBlockSize(t *testing.T) {
	if DetChunk != iter.BlockSize {
		t.Fatalf("DetChunk = %d, iter.BlockSize = %d", DetChunk, iter.BlockSize)
	}
	if DetChunk != sched.BlockAlign {
		t.Fatalf("DetChunk = %d, sched.BlockAlign = %d", DetChunk, sched.BlockAlign)
	}
}

// The tree shape is pinned: adjacent pairs, then adjacent pair results,
// odd element carried up. A non-commutative combine exposes the exact
// association.
func TestCombineTreeShape(t *testing.T) {
	paren := func(a, b string) string { return "(" + a + b + ")" }
	cases := []struct {
		parts []string
		want  string
	}{
		{nil, "id"},
		{[]string{"a"}, "a"},
		{[]string{"a", "b"}, "(ab)"},
		{[]string{"a", "b", "c"}, "((ab)c)"},
		{[]string{"a", "b", "c", "d"}, "((ab)(cd))"},
		{[]string{"a", "b", "c", "d", "e"}, "(((ab)(cd))e)"},
		{[]string{"a", "b", "c", "d", "e", "f"}, "(((ab)(cd))(ef))"},
	}
	for _, c := range cases {
		if got := CombineTree(c.parts, "id", paren); got != c.want {
			t.Fatalf("CombineTree(%v) = %q, want %q", c.parts, got, c.want)
		}
	}
}

// adversarialFloats builds a vector whose sum's rounding is maximally
// sensitive to association: a 2^53 spike followed by ones, so any partial
// that groups the spike with few ones loses them all.
func adversarialFloats(n int) []float64 {
	xs := make([]float64, n)
	xs[0] = float64(uint64(1) << 53)
	for i := 1; i < n; i++ {
		xs[i] = 1
	}
	return xs
}

// legacyFsum: the pre-fix shape — per-rank left-fold partials combined up
// the rank reduction tree. Its rounding depends on the node count.
var legacyFsum = NewMapReduce("core.test.legacyfsum",
	serial.F64s(), serial.Unit(), serial.F64C(),
	func(n *cluster.Node, slice []float64, _ struct{}) (float64, error) {
		return iter.Sum(iter.FromSlice(slice)), nil
	},
	func(a, b float64) float64 { return a + b })

// Documents the bug the deterministic skeleton fixes: the rank-partitioned
// sum provably changes rounding with the node count on association-
// sensitive data. (If this ever starts passing with equal bits, the legacy
// path gained determinism and the oracle's negative control needs a new
// counterexample.)
func TestRankPartitionedFloatSumDivergesAcrossNodeCounts(t *testing.T) {
	xs := adversarialFloats(10007)
	run := func(nodes int) float64 {
		var got float64
		_, err := cluster.Run(cluster.Config{Nodes: nodes, CoresPerNode: 1},
			func(s *cluster.Session) error {
				var err error
				got, err = legacyFsum.Run(s, SliceSource(xs), struct{}{})
				return err
			})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		return got
	}
	one, two := run(1), run(2)
	if math.Float64bits(one) == math.Float64bits(two) {
		t.Fatalf("legacy rank-partitioned sum unexpectedly node-count-invariant: %x", math.Float64bits(one))
	}
}
