package iter

import (
	"testing"
	"testing/quick"

	"triolet/internal/domain"
)

func seqMatrix2(h, w int) Matrix2[int] {
	m := Matrix2[int]{H: h, W: w, Data: make([]int, h*w)}
	for i := range m.Data {
		m.Data[i] = i
	}
	return m
}

func TestFromMatrix2AndBuild(t *testing.T) {
	m := seqMatrix2(3, 4)
	it := FromMatrix2(m)
	if it.Dom() != (domain.Dim2{H: 3, W: 4}) {
		t.Fatalf("Dom = %v", it.Dom())
	}
	if it.At(2, 1) != 9 {
		t.Fatalf("At(2,1) = %d", it.At(2, 1))
	}
	back := Build(it)
	if !eqSlices(back.Data, m.Data) {
		t.Fatalf("Build round-trip = %v", back.Data)
	}
}

func TestArrayRange2(t *testing.T) {
	it := ArrayRange2(domain.Dim2{H: 2, W: 3})
	if it.At(1, 2) != (domain.Ix2{Y: 1, X: 2}) {
		t.Fatalf("ArrayRange2.At = %v", it.At(1, 2))
	}
}

func TestTranspositionViaGather(t *testing.T) {
	// The paper's transposition idiom: [A[x,y] for (y,x) in arrayRange((0,0),(h,w))].
	a := seqMatrix2(2, 3)
	tr := Build(Map2(func(ix domain.Ix2) int {
		return a.At(ix.X, ix.Y) // swap: output (y,x) reads input (x,y)
	}, ArrayRange2(domain.Dim2{H: 3, W: 2})))
	want := []int{0, 3, 1, 4, 2, 5}
	if !eqSlices(tr.Data, want) {
		t.Fatalf("transpose = %v, want %v", tr.Data, want)
	}
}

func TestSliceRect(t *testing.T) {
	m := seqMatrix2(4, 4)
	sub := SliceRect(FromMatrix2(m), domain.Rect{
		Rows: domain.Range{Lo: 1, Hi: 3},
		Cols: domain.Range{Lo: 2, Hi: 4},
	})
	if sub.Dom() != (domain.Dim2{H: 2, W: 2}) {
		t.Fatalf("slice dom = %v", sub.Dom())
	}
	got := Build(sub)
	if !eqSlices(got.Data, []int{6, 7, 10, 11}) {
		t.Fatalf("slice = %v", got.Data)
	}
}

func TestSliceRectOutsidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SliceRect(FromMatrix2(seqMatrix2(2, 2)), domain.Rect{
		Rows: domain.Range{Lo: 0, Hi: 3},
		Cols: domain.Range{Lo: 0, Hi: 2},
	})
}

func TestRowsOf(t *testing.T) {
	m := seqMatrix2(3, 2)
	rows := RowsOf(FromMatrix2(m))
	if n, ok := rows.OuterLen(); !ok || n != 3 {
		t.Fatalf("rows OuterLen = %d,%v", n, ok)
	}
	var sums []int
	Collect(Map(func(r Iter[int]) int { return Sum(r) }, rows)).RunInto(&sums)
	if !eqSlices(sums, []int{1, 5, 9}) {
		t.Fatalf("row sums = %v", sums)
	}
}

func TestOuterProductMatMulStyle(t *testing.T) {
	// The paper's 2-line sgemm inner structure: dot products of rows of A
	// with rows of B^T.
	a := Matrix2[float64]{H: 2, W: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	bt := Matrix2[float64]{H: 2, W: 3, Data: []float64{1, 0, 1, 0, 1, 0}}
	prod := OuterProduct(RowsOf(FromMatrix2(a)), RowsOf(FromMatrix2(bt)))
	if prod.Dom() != (domain.Dim2{H: 2, W: 2}) {
		t.Fatalf("outer dom = %v", prod.Dom())
	}
	c := Build(Map2(func(p Pair[Iter[float64], Iter[float64]]) float64 {
		return Sum(ZipWith(func(x, y float64) float64 { return x * y }, p.Fst, p.Snd))
	}, prod))
	want := []float64{4, 2, 10, 5}
	if !eqSlices(c.Data, want) {
		t.Fatalf("matmul = %v, want %v", c.Data, want)
	}
}

func TestOuterProductRequiresFlat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OuterProduct(Filter(func(int) bool { return true }, Range(3)), Range(3))
}

func TestBuildIntoRects(t *testing.T) {
	// Building rectangle-by-rectangle must equal building whole.
	prop := func(h0, w0, py0, px0 uint8) bool {
		h, w := int(h0%9)+1, int(w0%9)+1
		py, px := int(py0%3)+1, int(px0%3)+1
		it := Map2(func(ix domain.Ix2) int { return ix.Y*100 + ix.X }, ArrayRange2(domain.Dim2{H: h, W: w}))
		whole := Build(it)
		tiled := Matrix2[int]{H: h, W: w, Data: make([]int, h*w)}
		for _, r := range (domain.Dim2{H: h, W: w}).GridPartition(py, px) {
			BuildInto(tiled, it, r)
		}
		return eqSlices(tiled.Data, whole.Data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPar2Hints(t *testing.T) {
	it := FromMatrix2(seqMatrix2(1, 1))
	if it.Hint() != Sequential {
		t.Fatal("default not sequential")
	}
	if Par2(it).Hint() != ClusterPar || LocalPar2(it).Hint() != NodePar {
		t.Fatal("2-D hint setters wrong")
	}
	if Map2(func(x int) int { return x }, Par2(it)).Hint() != ClusterPar {
		t.Fatal("Map2 dropped hint")
	}
}
