package serial

import (
	"bytes"
	"testing"

	"triolet/internal/array"
)

// Fuzz targets: every decoder must be total — arbitrary bytes produce an
// error or a value, never a panic or a pathological allocation. Message
// payloads cross the trust boundary between simulated nodes, so decoder
// robustness is load-bearing for the whole runtime.

func FuzzReaderPrimitives(f *testing.F) {
	w := NewWriter(0)
	w.Int(3)
	w.F64(1.5)
	w.String("seed")
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.Int()
		_ = r.F64()
		_ = r.String()
		_ = r.U8()
		_ = r.Bool()
		_ = r.F32()
		_ = r.RawBytes()
		_ = r.Remaining()
		_ = r.Err()
	})
}

func FuzzSliceDecoders(f *testing.F) {
	w := NewWriter(0)
	w.F64Slice([]float64{1, 2})
	f.Add(w.Bytes())
	w2 := NewWriter(0)
	w2.Int(1 << 50) // absurd length header
	f.Add(w2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = NewReader(data).F64Slice()
		_ = NewReader(data).F32Slice()
		_ = NewReader(data).I64Slice()
		_ = NewReader(data).IntSlice()
		sameView(t, F64s(), data)
		sameView(t, F32s(), data)
		sameView(t, I64s(), data)
	})
}

// sameView decodes data, and data one byte on, with Unmarshal and with
// UnmarshalView: both must fail alike or decode values that re-encode to
// the same bytes (a bit-pattern comparison, so NaNs compare equal), whether
// the view decode aliased its block or copied it.
func sameView[T any](t *testing.T, c Codec[T], data []byte) {
	t.Helper()
	for _, b := range [][]byte{data, data[min(1, len(data)):]} {
		want, werr := Unmarshal(c, b)
		got, gerr := UnmarshalView(c, b)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%T: Unmarshal error %v, UnmarshalView error %v", want, werr, gerr)
		}
		if werr == nil && !bytes.Equal(Marshal(c, got), Marshal(c, want)) {
			t.Fatalf("%T: UnmarshalView decoded other bits than Unmarshal", want)
		}
	}
}

func FuzzComposedCodecs(f *testing.F) {
	c := SliceOf(SliceOf(I64C()))
	seed := Marshal(c, [][]int64{{1}, {2, 3}})
	f.Add(seed)
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(c, data)
		if err == nil {
			// A successful decode must re-encode without panicking.
			_ = Marshal(c, v)
		}
	})
}

func FuzzMatrixCodec(f *testing.F) {
	m := array.NewMatrix[float64](2, 2)
	f.Add(Marshal(Matrix[float64](), m))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	// H = W = 2^32 with no data, and H = W = -1 with one element: shapes
	// whose product wraps to the data's length.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	neg := NewWriter(0)
	neg.Int(-1)
	neg.Int(-1)
	neg.F64Slice([]float64{1})
	f.Add(neg.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		sameView(t, Matrix[float64](), data)
		v, err := Unmarshal(Matrix[float64](), data)
		if err != nil {
			return
		}
		// Every row in range: H·W ≤ len(Data), computed without overflow.
		if v.H < 0 || v.W < 0 || v.W > 0 && v.H > len(v.Data)/v.W {
			t.Fatalf("decoded impossible matrix %dx%d with %d elements", v.H, v.W, len(v.Data))
		}
		if v.H > 0 {
			_, _ = v.Row(0), v.Row(v.H-1)
		}
	})
}

// FuzzRecordCodec: a record decoder never panics on arbitrary bytes, and
// whatever it accepts re-encodes to exactly the bytes it consumed.
func FuzzRecordCodec(f *testing.F) {
	c := Records[vec3, float32]()
	f.Add(Marshal(c, []vec3{{1, 2, 3}, {4, 5, 6}}))
	f.Add(Marshal(c, nil))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})                // one record, short body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd count
	f.Fuzz(func(t *testing.T, data []byte) {
		sameView(t, c, data)
		r := NewReader(data)
		v := c.Decode(r)
		if r.Err() != nil {
			return
		}
		consumed := data[:len(data)-r.Remaining()]
		if got := Marshal(c, v); !bytes.Equal(got, consumed) {
			t.Fatalf("re-encoded %x, consumed %x", got, consumed)
		}
	})
}
