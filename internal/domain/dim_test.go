package domain

import (
	"testing"
	"testing/quick"
)

func TestDim2Basics(t *testing.T) {
	d := NewDim2(3, 4)
	if d.Size() != 12 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.Empty() {
		t.Fatal("3x4 reported empty")
	}
	if !NewDim2(0, 4).Empty() || !NewDim2(3, 0).Empty() {
		t.Fatal("degenerate Dim2 not empty")
	}
	if !d.Contains(Ix2{2, 3}) || d.Contains(Ix2{3, 0}) || d.Contains(Ix2{0, 4}) || d.Contains(Ix2{-1, 0}) {
		t.Fatal("Contains wrong at boundaries")
	}
}

func TestDim2NegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDim2(-1, 3)
}

// Property: Unlinear inverts Linear for all in-domain points.
func TestDim2LinearRoundTrip(t *testing.T) {
	prop := func(h0, w0 uint8) bool {
		h := int(h0%20) + 1
		w := int(w0%20) + 1
		d := NewDim2(h, w)
		for i := range d.Size() {
			ix := d.Unlinear(i)
			if !d.Contains(ix) || d.Linear(ix) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Rows: Range{1, 3}, Cols: Range{2, 6}}
	if r.Size() != 8 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.Empty() {
		t.Fatal("reported empty")
	}
	if !r.Contains(Ix2{1, 2}) || r.Contains(Ix2{3, 2}) || r.Contains(Ix2{1, 6}) {
		t.Fatal("Contains wrong")
	}
	e := Rect{Rows: Range{0, 0}, Cols: Range{0, 5}}
	if !e.Empty() {
		t.Fatal("empty-rows rect not empty")
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{Rows: Range{0, 4}, Cols: Range{0, 4}}
	b := Rect{Rows: Range{2, 6}, Cols: Range{3, 9}}
	got := a.Intersect(b)
	want := Rect{Rows: Range{2, 4}, Cols: Range{3, 4}}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
}

// Property: a grid partition tiles the domain exactly: sizes sum to H*W and
// every sampled point is in exactly one rectangle.
func TestGridPartitionTiles(t *testing.T) {
	prop := func(h0, w0, py0, px0 uint8) bool {
		h, w := int(h0%30), int(w0%30)
		py, px := int(py0%5)+1, int(px0%5)+1
		d := NewDim2(h, w)
		rects := d.GridPartition(py, px)
		if len(rects) != py*px {
			return false
		}
		total := 0
		for _, r := range rects {
			total += r.Size()
		}
		if total != d.Size() {
			return false
		}
		for i := range d.Size() {
			ix := d.Unlinear(i)
			count := 0
			for _, r := range rects {
				if r.Contains(ix) {
					count++
				}
			}
			if count != 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGridShape(t *testing.T) {
	cases := []struct {
		d         Dim2
		p, py, px int
	}{
		{NewDim2(100, 100), 16, 4, 4},
		{NewDim2(1000, 10), 8, 4, 2}, // tall: more row blocks
		{NewDim2(10, 1000), 8, 2, 4}, // wide: more col blocks
		{NewDim2(64, 64), 7, 7, 1},   // prime p on square: degenerate
		{NewDim2(64, 64), 1, 1, 1},
	}
	for _, c := range cases {
		py, px := c.d.GridShape(c.p)
		if py*px != c.p {
			t.Errorf("GridShape(%v, %d): %dx%d does not multiply to %d", c.d, c.p, py, px, c.p)
		}
		if py != c.py || px != c.px {
			t.Errorf("GridShape(%v, %d) = (%d,%d), want (%d,%d)", c.d, c.p, py, px, c.py, c.px)
		}
	}
}

func TestGridShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDim2(2, 2).GridShape(0)
}

func TestDim2Whole(t *testing.T) {
	d := NewDim2(3, 5)
	w := d.Whole()
	if w.Size() != d.Size() || !w.Contains(Ix2{2, 4}) {
		t.Fatalf("Whole = %v", w)
	}
}

func TestDim3Basics(t *testing.T) {
	d := NewDim3(2, 3, 4)
	if d.Size() != 24 {
		t.Fatalf("Size = %d", d.Size())
	}
	if !d.Contains(Ix3{1, 2, 3}) || d.Contains(Ix3{2, 0, 0}) {
		t.Fatal("Contains wrong")
	}
}

func TestDim3NegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDim3(1, -2, 3)
}

// Property: Unlinear inverts Linear for Dim3.
func TestDim3LinearRoundTrip(t *testing.T) {
	prop := func(d0, h0, w0 uint8) bool {
		dd := NewDim3(int(d0%6)+1, int(h0%6)+1, int(w0%6)+1)
		for i := range dd.Size() {
			ix := dd.Unlinear(i)
			if !dd.Contains(ix) || dd.Linear(ix) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
