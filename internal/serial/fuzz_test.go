package serial

import (
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
	})
}

func FuzzComposedCodecs(f *testing.F) {
	c := SliceOf(PairOf(IntC(), F64s()))
	seed := Marshal(c, []PairV[int, []float64]{{Fst: 1, Snd: []float64{2}}})
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
	f.Add(Marshal(MatrixF64(), m))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(MatrixF64(), data)
		if err == nil && len(v.Data) != v.H*v.W {
			t.Fatalf("decoded inconsistent matrix %dx%d with %d elements", v.H, v.W, len(v.Data))
		}
	})
}
