package iter

import (
	"testing"
	"testing/quick"

	"triolet/internal/domain"
)

func irregular(xs []int) Iter[int] {
	// A representative irregular pipeline: keep positives, then expand
	// each x into [x, x+1).. actually one element per survivor; use
	// ConcatMap to force KIdxNest.
	return ConcatMap(func(x int) Iter[int] {
		if x%2 == 0 {
			return Empty[int]()
		}
		return Single(x)
	}, FromSlice(xs))
}

func TestTakeDrop(t *testing.T) {
	it := Range(10)
	if got := ToSlice(Take(3, it)); !eqSlices(got, []int{0, 1, 2}) {
		t.Fatalf("Take = %v", got)
	}
	if Take(3, it).Kind() != KIdxFlat {
		t.Fatal("Take lost flatness")
	}
	if got := ToSlice(Drop(7, it)); !eqSlices(got, []int{7, 8, 9}) {
		t.Fatalf("Drop = %v", got)
	}
	if got := ToSlice(Take(99, it)); len(got) != 10 {
		t.Fatalf("over-Take = %v", got)
	}
	if got := ToSlice(Drop(99, it)); len(got) != 0 {
		t.Fatalf("over-Drop = %v", got)
	}
	// Irregular paths.
	irr := irregular([]int{1, 2, 3, 4, 5})
	if got := ToSlice(Take(2, irr)); !eqSlices(got, []int{1, 3}) {
		t.Fatalf("irregular Take = %v", got)
	}
	if got := ToSlice(Drop(1, irr)); !eqSlices(got, []int{3, 5}) {
		t.Fatalf("irregular Drop = %v", got)
	}
}

func TestTakeDropNegativePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Take(-1, Range(3)) },
		func() { Drop(-1, Range(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestChainFlat(t *testing.T) {
	c := Chain(FromSlice([]int{1, 2}), FromSlice([]int{3}))
	if c.Kind() != KIdxFlat {
		t.Fatalf("kind = %v", c.Kind())
	}
	if got := ToSlice(c); !eqSlices(got, []int{1, 2, 3}) {
		t.Fatalf("Chain = %v", got)
	}
	// Chained flats still split correctly across the seam.
	if got := Sum(Split(c, domain.Range{Lo: 1, Hi: 3})); got != 5 {
		t.Fatalf("split across seam = %d", got)
	}
}

func TestChainMixed(t *testing.T) {
	c := Chain(irregular([]int{1, 2}), FromSlice([]int{9}))
	if got := ToSlice(c); !eqSlices(got, []int{1, 9}) {
		t.Fatalf("mixed Chain = %v", got)
	}
	if c.Kind() != KIdxNest {
		t.Fatalf("mixed kind = %v", c.Kind())
	}
}

func TestScan(t *testing.T) {
	got := ToSlice(Scan(FromSlice([]int{1, 2, 3}), 0, func(a, v int) int { return a + v }))
	if !eqSlices(got, []int{1, 3, 6}) {
		t.Fatalf("Scan = %v", got)
	}
	if got := ToSlice(Scan(Empty[int](), 5, func(a, v int) int { return a + v })); len(got) != 0 {
		t.Fatalf("empty Scan = %v", got)
	}
	// Scan over irregular input.
	got = ToSlice(Scan(irregular([]int{1, 2, 3}), 0, func(a, v int) int { return a + v }))
	if !eqSlices(got, []int{1, 4}) {
		t.Fatalf("irregular Scan = %v", got)
	}
}

func TestMean(t *testing.T) {
	m, n := Mean(FromSlice([]float64{1, 2, 3, 4}))
	if m != 2.5 || n != 4 {
		t.Fatalf("Mean = %v,%d", m, n)
	}
	if m, n := Mean(Empty[float64]()); m != 0 || n != 0 {
		t.Fatalf("empty Mean = %v,%d", m, n)
	}
}

// Property: Take(n) ++ Drop(n) == original for flat iterators.
func TestTakeDropPartitionProperty(t *testing.T) {
	prop := func(xs []int16, n0 uint8) bool {
		n := int(n0) % (len(xs) + 1)
		it := FromSlice(xs)
		recombined := ToSlice(Chain(Take(n, it), Drop(n, it)))
		if len(recombined) != len(xs) {
			return false
		}
		for i := range xs {
			if recombined[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the last element of Scan equals Reduce.
func TestScanLastEqualsReduce(t *testing.T) {
	prop := func(xs []int32) bool {
		it := FromSlice(xs)
		w := func(a int64, v int32) int64 { return a*3 + int64(v) }
		scanned := ToSlice(Scan(it, int64(7), w))
		folded := Reduce(it, int64(7), w)
		if len(xs) == 0 {
			return len(scanned) == 0
		}
		return scanned[len(scanned)-1] == folded
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
