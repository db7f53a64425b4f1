package iter

import (
	"testing"

	"triolet/internal/domain"
)

func TestBoxHelpers(t *testing.T) {
	b := domain.Box{
		Z: domain.Range{Lo: 0, Hi: 2},
		Y: domain.Range{Lo: 1, Hi: 3},
		X: domain.Range{Lo: 0, Hi: 1},
	}
	if b.Size() != 4 || b.Empty() {
		t.Fatalf("box size = %d", b.Size())
	}
	if !b.Contains(domain.Ix3{Z: 1, Y: 2, X: 0}) || b.Contains(domain.Ix3{Z: 2, Y: 1, X: 0}) {
		t.Fatal("box Contains wrong")
	}
	inter := b.Intersect(domain.Box{
		Z: domain.Range{Lo: 1, Hi: 5},
		Y: domain.Range{Lo: 0, Hi: 2},
		X: domain.Range{Lo: 0, Hi: 9},
	})
	if inter.Size() != 1 {
		t.Fatalf("intersection = %v", inter)
	}
	// Slabs tile the domain.
	d := domain.Dim3{D: 7, H: 2, W: 2}
	total := 0
	for _, s := range d.SlabPartition(3) {
		total += s.Size()
	}
	if total != d.Size() {
		t.Fatalf("slabs cover %d of %d", total, d.Size())
	}
}
