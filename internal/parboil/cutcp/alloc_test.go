// The race detector instruments allocations, so this runs in normal builds
// only (make alloc-gate).

//go:build !race

package cutcp

import (
	"testing"

	"triolet/internal/domain"
)

// TestSeqTrioletAllocsPerAtomNotPerRow: gridPts is one partial indexer per
// atom, so the pipeline allocates O(atoms) — the grid plus a closure per
// atom — however many rows a box has. Doubling the cutoff takes a box from
// 25 rows to 81.
func TestSeqTrioletAllocsPerAtomNotPerRow(t *testing.T) {
	const atoms = 64
	allocs := func(cutoff float32) float64 {
		in := Gen(atoms, domain.Dim3{D: 16, H: 16, W: 16}, 0.5, cutoff, 31)
		return testing.AllocsPerRun(10, func() { SeqTriolet(in) })
	}
	narrow, wide := allocs(1.0), allocs(2.0)
	if wide > narrow {
		t.Fatalf("SeqTriolet allocated %.0f at cutoff 2.0 (81 rows/atom) vs %.0f at 1.0 (25 rows/atom): allocations grow with rows", wide, narrow)
	}
	if narrow > 2*atoms+16 {
		t.Fatalf("SeqTriolet allocated %.0f for %d atoms, want O(atoms)", narrow, atoms)
	}
}
