// The race detector instruments allocations, so this runs in normal builds
// only (make alloc-gate).

//go:build !race

package cutcp

import (
	"testing"

	"triolet/internal/domain"
)

// TestSeqTrioletAllocsConstantInAtoms: gridPts is the block kernel of one
// stream nest, so the pipeline allocates the grid, the nest and one staging
// arena — the same count at 64 atoms as at 256, not a closure per atom.
func TestSeqTrioletAllocsConstantInAtoms(t *testing.T) {
	allocs := func(atoms int) float64 {
		in := Gen(atoms, domain.Dim3{D: 16, H: 16, W: 16}, 0.5, 2.0, 31)
		return testing.AllocsPerRun(10, func() { SeqTriolet(in) })
	}
	few, many := allocs(64), allocs(256)
	if many != few {
		t.Fatalf("SeqTriolet allocated %.0f at 256 atoms vs %.0f at 64: allocations grow with atoms", many, few)
	}
	if few > 16 {
		t.Fatalf("SeqTriolet allocated %.0f for 64 atoms, want O(1)", few)
	}
}
