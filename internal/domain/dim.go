package domain

import (
	"fmt"
	"math/bits"
)

// Ix2 identifies one point of a Dim2 domain (the paper's Index Dim2 =
// (Int, Int)). Row-major: Y is the slow (row) coordinate.
type Ix2 struct {
	Y, X int
}

// Dim2 is a dense two-dimensional index domain of H rows by W columns,
// corresponding to the paper's "data Dim2 = Dim2 Int Int". Matrix skeletons
// (rows, outerproduct, transpose) iterate over Dim2 domains.
type Dim2 struct {
	H, W int
}

// NewDim2 returns the h×w domain, panicking on negative extents.
func NewDim2(h, w int) Dim2 {
	if h < 0 || w < 0 {
		panic(fmt.Sprintf("domain: negative Dim2 %dx%d", h, w))
	}
	return Dim2{H: h, W: w}
}

// Size reports the total number of index points (H*W).
func (d Dim2) Size() int { return d.H * d.W }

// Empty reports whether the domain contains no points.
func (d Dim2) Empty() bool { return d.H == 0 || d.W == 0 }

// Linear converts a 2-D index to its row-major linear position.
func (d Dim2) Linear(ix Ix2) int { return ix.Y*d.W + ix.X }

// Unlinear converts a row-major linear position back to a 2-D index.
func (d Dim2) Unlinear(i int) Ix2 { return Ix2{Y: i / d.W, X: i % d.W} }

func (d Dim2) String() string { return fmt.Sprintf("Dim2(%dx%d)", d.H, d.W) }

// Rect is a rectangular sub-block of a Dim2 domain: rows Rows and columns
// Cols, both half-open. Distributed 2-D decompositions hand out Rects.
type Rect struct {
	Rows, Cols Range
}

// Size reports the number of index points in the rectangle.
func (r Rect) Size() int { return r.Rows.Len() * r.Cols.Len() }

func (r Rect) String() string { return fmt.Sprintf("Rect{rows %v, cols %v}", r.Rows, r.Cols) }

// Whole returns the rectangle covering the entire domain.
func (d Dim2) Whole() Rect { return Rect{Rows: Range{0, d.H}, Cols: Range{0, d.W}} }

// GridPartition splits the h×w domain into a py×px grid of rectangles whose
// row and column extents each differ by at most one. Every point belongs to
// exactly one rectangle. Rectangles are returned row-major by grid cell.
// This is the 2-D block decomposition sgemm uses (paper §2, §4.3).
func (d Dim2) GridPartition(py, px int) []Rect {
	rows := BlockPartition(d.H, py)
	cols := BlockPartition(d.W, px)
	out := make([]Rect, 0, py*px)
	for _, rr := range rows {
		for _, cc := range cols {
			out = append(out, Rect{Rows: rr, Cols: cc})
		}
	}
	return out
}

// GridShape chooses a py×px grid with py*px == p that is as close to square
// as possible given the domain's aspect ratio, preferring more row blocks
// for tall domains. It returns (py, px).
func (d Dim2) GridShape(p int) (int, int) {
	if p <= 0 {
		panic(fmt.Sprintf("domain: GridShape with p=%d", p))
	}
	best := 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			best = f
		}
	}
	// best <= sqrt(p); the cofactor is >= best. Put the larger factor on
	// the longer axis.
	small, large := best, p/best
	if d.H >= d.W {
		return large, small
	}
	return small, large
}

// PowerGrid is GridPartition over GridShape(g), g the least power of two
// ≥ p: rounding up keeps the grid non-degenerate for odd or prime p. p
// must be positive.
func (d Dim2) PowerGrid(p int) []Rect {
	return d.GridPartition(d.GridShape(1 << bits.Len(uint(p-1))))
}

// Ix3 identifies one point of a Dim3 domain.
type Ix3 struct {
	Z, Y, X int
}

// Dim3 is a dense three-dimensional index domain (D deep, H rows, W cols).
// The cutcp potential grid iterates over a Dim3 domain.
type Dim3 struct {
	D, H, W int
}

// NewDim3 returns the d×h×w domain, panicking on negative extents.
func NewDim3(d, h, w int) Dim3 {
	if d < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("domain: negative Dim3 %dx%dx%d", d, h, w))
	}
	return Dim3{D: d, H: h, W: w}
}

// Size reports the total number of index points (D*H*W).
func (d Dim3) Size() int { return d.D * d.H * d.W }

// Linear converts a 3-D index to its linear position (Z slowest).
func (d Dim3) Linear(ix Ix3) int { return (ix.Z*d.H+ix.Y)*d.W + ix.X }

// Unlinear converts a linear position back to a 3-D index.
func (d Dim3) Unlinear(i int) Ix3 {
	x := i % d.W
	i /= d.W
	return Ix3{Z: i / d.H, Y: i % d.H, X: x}
}

// Contains reports whether ix lies inside the domain.
func (d Dim3) Contains(ix Ix3) bool {
	return ix.Z >= 0 && ix.Z < d.D && ix.Y >= 0 && ix.Y < d.H && ix.X >= 0 && ix.X < d.W
}

func (d Dim3) String() string { return fmt.Sprintf("Dim3(%dx%dx%d)", d.D, d.H, d.W) }
