package serial

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestRawMatchesCodec: Raw's wire format is the element body of the
// corresponding slice codec — identical bytes minus the 8-byte length
// prefix — so raw payloads interoperate with every reader that knows the
// element type.
func TestRawMatchesCodec(t *testing.T) {
	f64 := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	if got, want := Raw(f64), Marshal(F64s(), f64)[8:]; !bytes.Equal(got, want) {
		t.Fatalf("Raw([]float64) = %x, want codec body %x", got, want)
	}
	f32 := []float32{0, 1.5, -2.25, 3.4e38}
	if got, want := Raw(f32), Marshal(F32s(), f32)[8:]; !bytes.Equal(got, want) {
		t.Fatalf("Raw([]float32) = %x, want codec body %x", got, want)
	}
	i64 := []int64{0, 1, -1, 1 << 62, -(1 << 62)}
	if got, want := Raw(i64), Marshal(I64s(), i64)[8:]; !bytes.Equal(got, want) {
		t.Fatalf("Raw([]int64) = %x, want codec body %x", got, want)
	}
	ints := []int{0, 7, -7, 1 << 40}
	if got, want := Raw(ints), Marshal(Ints(), ints)[8:]; !bytes.Equal(got, want) {
		t.Fatalf("Raw([]int) = %x, want codec body %x", got, want)
	}
}

// rawRoundTrip exercises Raw → RawView / RawCopy for one element type.
func rawRoundTrip[E RawElem](t *testing.T, xs []E) {
	t.Helper()
	b := Raw(xs)
	var zero E
	if want := len(xs) * int(unsafe.Sizeof(zero)); len(b) != want {
		t.Fatalf("Raw: %d bytes, want %d", len(b), want)
	}
	view, err := RawView[E](b)
	if err != nil {
		t.Fatalf("RawView: %v", err)
	}
	cp, err := RawCopy[E](b)
	if err != nil {
		t.Fatalf("RawCopy: %v", err)
	}
	for i := range xs {
		if view[i] != xs[i] || cp[i] != xs[i] {
			t.Fatalf("element %d: view %v copy %v, want %v", i, view[i], cp[i], xs[i])
		}
	}
	if len(xs) > 0 && &cp[0] == &xs[0] {
		t.Fatal("RawCopy aliases the source")
	}
}

// TestRawRoundTrip covers every type in the RawElem set.
func TestRawRoundTrip(t *testing.T) {
	rawRoundTrip(t, []float64{1.5, -2.25, 0, 1e-10})
	rawRoundTrip(t, []float32{1.5, -2.25, 0})
	rawRoundTrip(t, []int64{-5, 0, 5, 1 << 60})
	rawRoundTrip(t, []int32{-5, 0, 5, 1 << 30})
	rawRoundTrip(t, []int{-5, 0, 5})
	rawRoundTrip(t, []uint32{0, 5, 1 << 31})
	rawRoundTrip(t, []uint64{0, 5, 1 << 63})
	rawRoundTrip(t, []float64(nil))
}

// TestRawAliases: on a little-endian host the encode side aliases the
// backing array — mutations through the source are visible in the wire
// bytes — and an aligned decode aliases right back.
func TestRawAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: Raw copies by design")
	}
	xs := []int64{1, 2, 3}
	b := Raw(xs)
	xs[1] = 42
	v, err := RawView[int64](b)
	if err != nil {
		t.Fatal(err)
	}
	if v[1] != 42 {
		t.Fatalf("view not aliased: v[1] = %d, want 42", v[1])
	}
	if !aliasable[int64](b) {
		t.Fatal("aliasable = false for an aligned payload")
	}
}

// TestRawViewMisaligned: a payload that lands on an odd byte boundary (as a
// sub-slice of a larger frame can) must decode by copy, not alias, and
// still produce the right elements.
func TestRawViewMisaligned(t *testing.T) {
	xs := []float64{1.5, -2.5, 3.25}
	buf := make([]byte, len(xs)*8+1)
	copy(buf[1:], Raw(xs))
	b := buf[1:]
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		t.Skip("sub-slice landed aligned; cannot force misalignment here")
	}
	if aliasable[float64](b) {
		t.Fatal("aliasable = true for a misaligned payload")
	}
	v, err := RawView[float64](b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if v[i] != xs[i] {
			t.Fatalf("misaligned decode: v[%d] = %v, want %v", i, v[i], xs[i])
		}
	}
}

// TestRawViewBadLength: payload lengths that are not a multiple of the
// element size are rejected, never silently truncated.
func TestRawViewBadLength(t *testing.T) {
	if _, err := RawView[float64](make([]byte, 12)); err == nil {
		t.Fatal("RawView accepted a 12-byte payload for 8-byte elements")
	}
	if _, err := RawCopy[int32](make([]byte, 7)); err == nil {
		t.Fatal("RawCopy accepted a 7-byte payload for 4-byte elements")
	}
}

// FuzzRawDecode drives the raw decoders with arbitrary payloads: RawView
// and RawCopy must agree with each other on both acceptance and values,
// and re-encoding a successful decode must reproduce the input bytes.
func FuzzRawDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(Raw([]float64{1.5, -2.5}))
	f.Add(Raw([]uint32{7, 1 << 30, 42}))
	f.Add(make([]byte, 13))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRawDecode[float64](t, b)
		checkRawDecode[float32](t, b)
		checkRawDecode[int64](t, b)
		checkRawDecode[int32](t, b)
		checkRawDecode[uint32](t, b)
		checkRawDecode[uint64](t, b)
	})
}

func checkRawDecode[E RawElem](t *testing.T, b []byte) {
	t.Helper()
	view, verr := RawView[E](b)
	cp, cerr := RawCopy[E](b)
	if (verr == nil) != (cerr == nil) {
		t.Fatalf("RawView err %v but RawCopy err %v", verr, cerr)
	}
	if verr != nil {
		return
	}
	if len(view) != len(cp) {
		t.Fatalf("view has %d elements, copy has %d", len(view), len(cp))
	}
	for i := range view {
		// Compare bit patterns, not values: NaN payloads must survive.
		if view[i] != cp[i] && !(view[i] != view[i] && cp[i] != cp[i]) {
			t.Fatalf("element %d: view %v, copy %v", i, view[i], cp[i])
		}
	}
	if re := Raw(cp); !bytes.Equal(re, normalizeEmpty(b)) {
		t.Fatalf("re-encode mismatch: %x vs %x", re, b)
	}
}

// normalizeEmpty maps empty inputs to nil, matching Raw's encoding of an
// empty slice.
func normalizeEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}
