// Package cutcp implements the Parboil cutcp benchmark (paper §4.5): the
// cutoff Coulombic potential of a collection of charged atoms on a uniform
// 3-D grid. Each atom contributes q·(1/r)·(1−(r/c)²)² to every grid point
// within cutoff distance c. The computation is a floating-point histogram
// over an irregular nested traversal — the paper's motivating example:
//
//	floatHist [f a r | a <- atoms, r <- gridPts a]
package cutcp

import (
	"math"

	"triolet/internal/domain"
	"triolet/internal/parboil"
)

// Atom is a charged particle.
type Atom struct {
	X, Y, Z, Q float32
}

// Geometry describes the potential grid: Dim.Size() points at Spacing
// apart, with the point (z,y,x) at position (x·Spacing, y·Spacing,
// z·Spacing). Cutoff is the interaction radius.
type Geometry struct {
	Dim     domain.Dim3
	Spacing float32
	Cutoff  float32
}

// Points reports the grid size.
func (g Geometry) Points() int { return g.Dim.Size() }

// Input is one cutcp instance.
type Input struct {
	Atoms []Atom
	Geo   Geometry
}

// Gen creates a deterministic instance: atoms uniformly placed inside the
// grid volume with charges in [-1, 1).
func Gen(atoms int, dim domain.Dim3, spacing, cutoff float32, seed uint64) *Input {
	rng := parboil.NewRand(seed)
	in := &Input{
		Atoms: make([]Atom, atoms),
		Geo:   Geometry{Dim: dim, Spacing: spacing, Cutoff: cutoff},
	}
	lx := float32(dim.W-1) * spacing
	ly := float32(dim.H-1) * spacing
	lz := float32(dim.D-1) * spacing
	for i := range in.Atoms {
		in.Atoms[i] = Atom{
			X: rng.Float32() * lx,
			Y: rng.Float32() * ly,
			Z: rng.Float32() * lz,
			Q: rng.Float32()*2 - 1,
		}
	}
	return in
}

// cellRange clamps the cells whose coordinate lies within cutoff of pos to
// [0, n): the bounding slab of an atom along one axis, empty (hi == lo)
// when the atom is more than a cutoff outside the grid.
func cellRange(pos, cutoff, spacing float32, n int) (int, int) {
	lo := int(math.Ceil(float64((pos - cutoff) / spacing)))
	hi := int(math.Floor(float64((pos + cutoff) / spacing)))
	lo = max(lo, 0)
	hi = min(hi, n-1)
	return lo, max(hi+1, lo) // half-open
}

// Contribution computes one atom's potential at a grid point, or (0,
// false) when the point is outside the cutoff sphere (or coincident with
// the atom). Shared by every implementation so per-pair values are
// bit-identical; only summation order differs across parallel schedules.
func Contribution(g Geometry, a Atom, ix domain.Ix3) (float32, bool) {
	dx := float32(ix.X)*g.Spacing - a.X
	dy := float32(ix.Y)*g.Spacing - a.Y
	dz := float32(ix.Z)*g.Spacing - a.Z
	r2 := dx*dx + dy*dy + dz*dz
	c2 := g.Cutoff * g.Cutoff
	if r2 >= c2 || r2 == 0 {
		return 0, false
	}
	s := 1 - r2/c2
	return a.Q * s * s / float32(math.Sqrt(float64(r2))), true
}

// AtomBox returns the half-open cell ranges of the atom's bounding box.
func AtomBox(g Geometry, a Atom) (zr, yr, xr domain.Range) {
	zlo, zhi := cellRange(a.Z, g.Cutoff, g.Spacing, g.Dim.D)
	ylo, yhi := cellRange(a.Y, g.Cutoff, g.Spacing, g.Dim.H)
	xlo, xhi := cellRange(a.X, g.Cutoff, g.Spacing, g.Dim.W)
	return domain.Range{Lo: zlo, Hi: zhi}, domain.Range{Lo: ylo, Hi: yhi}, domain.Range{Lo: xlo, Hi: xhi}
}

// Accumulate adds one atom's contributions into grid — the imperative
// fused loop nest used by the sequential, Eden, and reference versions
// (and equivalent to the Triolet iterator pipeline after fusion).
func Accumulate(g Geometry, a Atom, grid []float32) {
	zr, yr, xr := AtomBox(g, a)
	for z := zr.Lo; z < zr.Hi; z++ {
		for y := yr.Lo; y < yr.Hi; y++ {
			base := (z*g.Dim.H + y) * g.Dim.W
			for x := xr.Lo; x < xr.Hi; x++ {
				if v, ok := Contribution(g, a, domain.Ix3{Z: z, Y: y, X: x}); ok {
					grid[base+x] += v
				}
			}
		}
	}
}

// Seq is the sequential C-style kernel: the speedup-1.0 baseline of paper
// Fig. 8.
func Seq(in *Input) []float32 {
	grid := make([]float32, in.Geo.Points())
	for _, a := range in.Atoms {
		Accumulate(in.Geo, a, grid)
	}
	return grid
}
