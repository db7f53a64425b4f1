package array

import (
	"testing"
	"testing/quick"

	"triolet/internal/domain"
)

func seqMatrix(h, w int) Matrix[int] {
	m := NewMatrix[int](h, w)
	for i := range m.Data {
		m.Data[i] = i
	}
	return m
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix[int](3, 4)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Fatalf("At(1,2) = %d", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 4 || row[2] != 42 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 7 // view shares storage
	if m.At(1, 0) != 7 {
		t.Fatal("Row is not a view")
	}
	// Row view must not allow appends to clobber the next row.
	if cap(row) != 4 {
		t.Fatalf("Row cap = %d, want 4", cap(row))
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix[int](-1, 2)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]int{{1, 2}, {3, 4}, {5, 6}})
	if m.H != 3 || m.W != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows = %+v", m)
	}
	if got := FromRows[int](nil); got.H != 0 || got.W != 0 {
		t.Fatalf("FromRows(nil) = %+v", got)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]int{{1, 2}, {3}})
}

func TestRowBand(t *testing.T) {
	m := seqMatrix(4, 3)
	b := m.RowBand(domain.Range{Lo: 1, Hi: 3})
	if b.H != 2 || b.W != 3 {
		t.Fatalf("band shape %dx%d", b.H, b.W)
	}
	if b.At(0, 0) != 3 || b.At(1, 2) != 8 {
		t.Fatalf("band contents wrong: %v", b.Data)
	}
	b.Set(0, 0, -1)
	if m.At(1, 0) != -1 {
		t.Fatal("RowBand is not a view")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := seqMatrix(2, 2)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestCopyExtractRectRoundTrip(t *testing.T) {
	prop := func(h0, w0, seed uint8) bool {
		h, w := int(h0%8)+2, int(w0%8)+2
		m := seqMatrix(h, w)
		rect := domain.Rect{
			Rows: domain.Range{Lo: int(seed) % h, Hi: h},
			Cols: domain.Range{Lo: int(seed/2) % w, Hi: w},
		}
		sub := m.ExtractRect(rect)
		dst := NewMatrix[int](h, w)
		dst.CopyRect(rect, sub)
		for y := rect.Rows.Lo; y < rect.Rows.Hi; y++ {
			for x := rect.Cols.Lo; x < rect.Cols.Hi; x++ {
				if dst.At(y, x) != m.At(y, x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyRectShapeMismatchPanics(t *testing.T) {
	m := NewMatrix[int](4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.CopyRect(domain.Rect{Rows: domain.Range{Lo: 0, Hi: 2}, Cols: domain.Range{Lo: 0, Hi: 2}}, NewMatrix[int](3, 2))
}

func TestTransposeInvolution(t *testing.T) {
	prop := func(h0, w0 uint8) bool {
		h, w := int(h0%10)+1, int(w0%10)+1
		m := seqMatrix(h, w)
		tt := Transpose(Transpose(m))
		if tt.H != m.H || tt.W != m.W {
			return false
		}
		for i, v := range tt.Data {
			if v != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeValues(t *testing.T) {
	m := FromRows([][]int{{1, 2, 3}, {4, 5, 6}})
	tr := Transpose(m)
	want := FromRows([][]int{{1, 4}, {2, 5}, {3, 6}})
	for i := range want.Data {
		if tr.Data[i] != want.Data[i] {
			t.Fatalf("Transpose = %v, want %v", tr.Data, want.Data)
		}
	}
}

func TestTransposeIntoBands(t *testing.T) {
	// Transposing band-by-band must equal transposing all at once.
	m := seqMatrix(5, 7)
	whole := Transpose(m)
	banded := NewMatrix[int](7, 5)
	for _, r := range domain.BlockPartition(7, 3) {
		TransposeInto(banded, m, r)
	}
	for i := range whole.Data {
		if banded.Data[i] != whole.Data[i] {
			t.Fatal("banded transpose differs from whole transpose")
		}
	}
}

func TestTransposeIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransposeInto(NewMatrix[int](2, 2), NewMatrix[int](2, 3), domain.Range{Lo: 0, Hi: 2})
}

func TestAddInto(t *testing.T) {
	dst := []int{1, 2, 3}
	AddInto(dst, []int{10, 20, 30})
	if dst[0] != 11 || dst[1] != 22 || dst[2] != 33 {
		t.Fatalf("AddInto = %v", dst)
	}
}

func TestAddIntoMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddInto([]int{1}, []int{1, 2})
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]int{1}, []int{1, 2})
}

// Property: Dot is commutative and equals the sum of elementwise products.
func TestDotProperties(t *testing.T) {
	prop := func(xs []int8) bool {
		x := make([]int64, len(xs))
		y := make([]int64, len(xs))
		for i, v := range xs {
			x[i] = int64(v)
			y[i] = int64(v) * 3
		}
		if Dot(x, y) != Dot(y, x) {
			return false
		}
		var sum int64
		for i := range x {
			sum += x[i] * y[i]
		}
		return Dot(x, y) == sum
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
