// Package array provides the dense, unboxed storage types the rest of the
// system computes on: flat vectors and row-major matrices. The paper's
// high-performance style keeps data in flat arrays so that tasks traverse
// contiguous memory and serialization can block-copy (paper §3.4); this
// package is the Go analog of those unboxed arrays.
package array

import (
	"fmt"

	"triolet/internal/domain"
)

// Matrix is a dense row-major h×w matrix backed by a single flat slice.
// Row r occupies Data[r*W : (r+1)*W].
type Matrix[T any] struct {
	H, W int
	Data []T
}

// NewMatrix allocates a zeroed h×w matrix.
func NewMatrix[T any](h, w int) Matrix[T] {
	if h < 0 || w < 0 {
		panic(fmt.Sprintf("array: negative Matrix %dx%d", h, w))
	}
	return Matrix[T]{H: h, W: w, Data: make([]T, h*w)}
}

// FromRows builds a matrix from equal-length rows, copying the data.
func FromRows[T any](rows [][]T) Matrix[T] {
	if len(rows) == 0 {
		return Matrix[T]{}
	}
	w := len(rows[0])
	m := NewMatrix[T](len(rows), w)
	for r, row := range rows {
		if len(row) != w {
			panic(fmt.Sprintf("array: ragged rows: row %d has %d cols, want %d", r, len(row), w))
		}
		copy(m.Row(r), row)
	}
	return m
}

// Dom returns the index domain of the matrix.
func (m Matrix[T]) Dom() domain.Dim2 { return domain.Dim2{H: m.H, W: m.W} }

// At returns the element at row y, column x.
func (m Matrix[T]) At(y, x int) T { return m.Data[y*m.W+x] }

// Set stores v at row y, column x.
func (m Matrix[T]) Set(y, x int, v T) { m.Data[y*m.W+x] = v }

// Row returns the y-th row as a slice view sharing the matrix storage.
func (m Matrix[T]) Row(y int) []T { return m.Data[y*m.W : (y+1)*m.W : (y+1)*m.W] }

// RowBand returns the sub-matrix of rows [lo,hi) as a view sharing storage.
func (m Matrix[T]) RowBand(r domain.Range) Matrix[T] {
	return Matrix[T]{H: r.Len(), W: m.W, Data: m.Data[r.Lo*m.W : r.Hi*m.W]}
}

// Clone returns a deep copy of the matrix.
func (m Matrix[T]) Clone() Matrix[T] {
	d := make([]T, len(m.Data))
	copy(d, m.Data)
	return Matrix[T]{H: m.H, W: m.W, Data: d}
}

// CopyRect copies the contents of src into the rectangle rect of m. src must
// have exactly rect's shape. This is how gathered output blocks are placed
// into the final matrix.
func (m Matrix[T]) CopyRect(rect domain.Rect, src Matrix[T]) {
	if src.H != rect.Rows.Len() || src.W != rect.Cols.Len() {
		panic(fmt.Sprintf("array: CopyRect shape mismatch: src %dx%d, rect %v", src.H, src.W, rect))
	}
	for r := 0; r < src.H; r++ {
		copy(m.Row(rect.Rows.Lo + r)[rect.Cols.Lo:rect.Cols.Lo+src.W], src.Row(r))
	}
}

// ExtractRect returns a copy of the rectangle rect of m as a new matrix.
func (m Matrix[T]) ExtractRect(rect domain.Rect) Matrix[T] {
	out := NewMatrix[T](rect.Rows.Len(), rect.Cols.Len())
	for r := 0; r < out.H; r++ {
		copy(out.Row(r), m.Row(rect.Rows.Lo + r)[rect.Cols.Lo:rect.Cols.Hi])
	}
	return out
}

// Transpose returns a new matrix that is the transpose of m. The sequential
// kernel; sgemm parallelizes transposition over shared memory (paper §4.3)
// via TransposeInto on row bands.
func Transpose[T any](m Matrix[T]) Matrix[T] {
	out := NewMatrix[T](m.W, m.H)
	TransposeInto(out, m, domain.Range{Lo: 0, Hi: m.W})
	return out
}

// TransposeInto writes rows outRows of the transpose of m into out. out must
// be a W×H matrix. Splitting outRows across threads parallelizes the
// transpose.
func TransposeInto[T any](out, m Matrix[T], outRows domain.Range) {
	if out.H != m.W || out.W != m.H {
		panic(fmt.Sprintf("array: TransposeInto shape mismatch: out %dx%d, m %dx%d", out.H, out.W, m.H, m.W))
	}
	for c := outRows.Lo; c < outRows.Hi; c++ {
		dst := out.Row(c)
		for r := 0; r < m.H; r++ {
			dst[r] = m.Data[r*m.W+c]
		}
	}
}

// AddInto accumulates src into dst elementwise: dst[i] += src[i]. The slices
// must have equal length. This is the histogram-merge step of the two-level
// reductions.
func AddInto[T Number](dst, src []T) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("array: AddInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Number is the constraint for element types that support addition and
// multiplication; the skeleton reductions are defined over it.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Dot returns the dot product of equal-length vectors.
func Dot[T Number](xs, ys []T) T {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("array: Dot length mismatch %d vs %d", len(xs), len(ys)))
	}
	var acc T
	for i, x := range xs {
		acc += x * ys[i]
	}
	return acc
}
