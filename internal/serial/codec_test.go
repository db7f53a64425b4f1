package serial

import (
	"slices"
	"testing"
	"testing/quick"

	"triolet/internal/array"
)

func TestPrimitiveCodecs(t *testing.T) {
	if v, err := Unmarshal(I64C(), Marshal(I64C(), -99)); err != nil || v != -99 {
		t.Fatalf("I64C: %v %v", v, err)
	}
	if v, err := Unmarshal(F64C(), Marshal(F64C(), 3.5)); err != nil || v != 3.5 {
		t.Fatalf("F64C: %v %v", v, err)
	}
	if v, err := Unmarshal(F64s(), Marshal(F64s(), []float64{1, 2})); err != nil || len(v) != 2 || v[1] != 2 {
		t.Fatalf("F64s: %v %v", v, err)
	}
	if v, err := Unmarshal(F32s(), Marshal(F32s(), []float32{4})); err != nil || v[0] != 4 {
		t.Fatalf("F32s: %v %v", v, err)
	}
	if v, err := Unmarshal(I64s(), Marshal(I64s(), []int64{-7})); err != nil || v[0] != -7 {
		t.Fatalf("I64s: %v %v", v, err)
	}
	if v, err := Unmarshal(Ints(), Marshal(Ints(), []int{8, 9})); err != nil || v[1] != 9 {
		t.Fatalf("Ints: %v %v", v, err)
	}
	if _, err := Unmarshal(Unit(), Marshal(Unit(), struct{}{})); err != nil {
		t.Fatalf("Unit: %v", err)
	}
}

func TestSliceOfNested(t *testing.T) {
	c := SliceOf(F64s()) // [][]float64: the chunked-array shape Eden uses
	in := [][]float64{{1, 2}, nil, {3}}
	out, err := Unmarshal(c, Marshal(c, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != 2 || len(out[1]) != 0 || out[2][0] != 3 {
		t.Fatalf("nested = %v", out)
	}
}

func TestSliceOfRefusesAbsurdLength(t *testing.T) {
	// A corrupt header claiming a huge count must fail, not allocate.
	w := NewWriter(0)
	w.Int(1 << 40)
	_, err := Unmarshal(SliceOf(I64C()), w.Bytes())
	if err == nil {
		t.Fatal("absurd length decoded")
	}
}

func TestMatrixCodecs(t *testing.T) {
	m := array.NewMatrix[float64](2, 3)
	for i := range m.Data {
		m.Data[i] = float64(i) * 1.5
	}
	got, err := Unmarshal(Matrix[float64](), Marshal(Matrix[float64](), m))
	if err != nil {
		t.Fatal(err)
	}
	if got.H != 2 || got.W != 3 {
		t.Fatalf("shape %dx%d", got.H, got.W)
	}
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("data[%d] = %v", i, got.Data[i])
		}
	}

	m32 := array.NewMatrix[float32](1, 2)
	m32.Data[1] = 4
	got32, err := Unmarshal(Matrix[float32](), Marshal(Matrix[float32](), m32))
	if err != nil || got32.At(0, 1) != 4 {
		t.Fatalf("f32 matrix: %+v err %v", got32, err)
	}
}

func TestMatrixCodecShapeMismatchFails(t *testing.T) {
	w := NewWriter(0)
	w.Int(2)
	w.Int(3)
	w.F64Slice([]float64{1}) // 1 element for a claimed 2x3
	if _, err := Unmarshal(Matrix[float64](), w.Bytes()); err == nil {
		t.Fatal("shape mismatch decoded")
	}
}

// TestMatrixCodecRefusesImpossibleShapes: a shape whose product overflows,
// or a negative side, is refused rather than decoded into a matrix whose
// rows index out of range.
func TestMatrixCodecRefusesImpossibleShapes(t *testing.T) {
	for _, c := range []struct {
		h, w int
		data []float64
	}{
		{1 << 32, 1 << 32, nil},
		{-1, -1, []float64{1}},
		{-2, 0, nil},
		{0, -3, nil},
		{3, 1 << 62, []float64{1, 2}},
	} {
		w := NewWriter(0)
		w.Int(c.h)
		w.Int(c.w)
		w.F64Slice(c.data)
		if m, err := Unmarshal(Matrix[float64](), w.Bytes()); err == nil {
			t.Errorf("%dx%d with %d elements decoded as %dx%d", c.h, c.w, len(c.data), m.H, m.W)
		}
	}
	// A zero side is a shape the data fills: rows of nothing.
	if m, err := Unmarshal(Matrix[float64](), Marshal(Matrix[float64](), array.Matrix[float64]{H: 5})); err != nil || m.H != 5 || len(m.Row(4)) != 0 {
		t.Fatalf("5x0 matrix: %+v, %v", m, err)
	}
}

// Property: arbitrary [][]int round-trips through composed codecs.
func TestComposedCodecRoundTripProperty(t *testing.T) {
	c := SliceOf(Ints())
	prop := func(in [][]int) bool {
		out, err := Unmarshal(c, Marshal(c, in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if len(out[i]) != len(in[i]) {
				return false
			}
			for j := range in[i] {
				if out[i][j] != in[i][j] {
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

// TestDecodeIntoAllocs: a block codec decodes into the caller's slice with no
// allocation, any other codec by way of Decode, and both refuse a slice of
// another length than the one encoded.
func TestDecodeIntoAllocs(t *testing.T) {
	xs := []int64{1, -2, 1 << 40}
	block, generic := I64s(), SliceOf(I64C())
	enc, dst, r := Marshal(block, xs), make([]int64, 3), new(Reader)
	if n := testing.AllocsPerRun(20, func() { *r = Reader{buf: enc}; DecodeInto(block, r, dst) }); n != 0 {
		t.Errorf("block decode into allocates %v times", n)
	}
	if r.Err() != nil || !slices.Equal(dst, xs) {
		t.Errorf("block decode into: %v, %v", dst, r.Err())
	}
	for _, c := range []Codec[[]int64]{block, generic} {
		for _, n := range []int{2, 3, 4} {
			got, r := make([]int64, n), NewReader(Marshal(c, xs))
			if DecodeInto(c, r, got); (r.Err() == nil) != (n == 3) || n == 3 && !slices.Equal(got, xs) {
				t.Errorf("%T into %d cells: %v, %v", c, n, got, r.Err())
			}
		}
	}
}
