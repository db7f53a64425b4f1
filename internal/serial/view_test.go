package serial

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"triolet/internal/array"
)

// viewOf decodes b with UnmarshalView and reports whether the block that
// starts at b[off] came back as a view of it: the value's first word sits at
// that address.
func viewOf[T any](t *testing.T, c Codec[T], b []byte, off int, first func(T) unsafe.Pointer) (T, bool) {
	t.Helper()
	v, err := UnmarshalView(c, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Unmarshal(c, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Marshal(c, v), Marshal(c, want)) {
		t.Fatalf("%T: view decode differs from Unmarshal", v)
	}
	return v, first(v) == unsafe.Pointer(&b[off])
}

// TestUnmarshalViewAliases: on a little-endian host every block codec —
// F64s, F32s, I64s, Records and Matrix's data block — decodes an aligned
// block as a view of the message, with capacity equal to its length, so an
// append reallocates instead of writing past the block.
func TestUnmarshalViewAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: view decode copies by design")
	}
	b := Marshal(F64s(), []float64{1.5, math.NaN(), math.Copysign(0, -1), 3.25})
	f64, ok := viewOf(t, F64s(), b, 8, func(v []float64) unsafe.Pointer { return unsafe.Pointer(&v[0]) })
	if !ok {
		t.Fatal("F64s: aligned block copied")
	}
	if cap(f64) != len(f64) {
		t.Fatalf("F64s view: cap %d, len %d", cap(f64), len(f64))
	}
	before := bytes.Clone(b)
	if grown := append(f64, 7); &grown[0] == &f64[0] || !bytes.Equal(b, before) {
		t.Fatal("append to a view wrote into the message")
	}
	if _, ok := viewOf(t, F32s(), Marshal(F32s(), []float32{1, 2, 3}), 8,
		func(v []float32) unsafe.Pointer { return unsafe.Pointer(&v[0]) }); !ok {
		t.Fatal("F32s: aligned block copied")
	}
	if _, ok := viewOf(t, I64s(), Marshal(I64s(), []int64{-1, 2}), 8,
		func(v []int64) unsafe.Pointer { return unsafe.Pointer(&v[0]) }); !ok {
		t.Fatal("I64s: aligned block copied")
	}
	rc := Records[vec3, float32]()
	if _, ok := viewOf(t, rc, Marshal(rc, []vec3{{1, 2, 3}, {4, 5, 6}}), 8,
		func(v []vec3) unsafe.Pointer { return unsafe.Pointer(&v[0]) }); !ok {
		t.Fatal("Records: aligned block copied")
	}
	m := array.NewMatrix[float32](2, 3)
	m.Data[5] = 9
	if _, ok := viewOf(t, Matrix[float32](), Marshal(Matrix[float32](), m), 24,
		func(v array.Matrix[float32]) unsafe.Pointer { return unsafe.Pointer(&v.Data[0]) }); !ok {
		t.Fatal("Matrix: aligned data block copied")
	}
}

// TestUnmarshalViewMisaligned: a block one byte off its element boundary
// decodes to a copy, equal bit for bit to what Unmarshal returns.
func TestUnmarshalViewMisaligned(t *testing.T) {
	xs := []float64{1.5, math.NaN(), math.Copysign(0, -1), 3.25}
	enc := Marshal(F64s(), xs)
	buf := make([]byte, len(enc)+1)
	copy(buf[1:], enc)
	b := buf[1:]
	if aliasable[float64](b[8:]) {
		t.Skip("sub-slice landed aligned; cannot force misalignment here")
	}
	v, ok := viewOf(t, F64s(), b, 8, func(v []float64) unsafe.Pointer { return unsafe.Pointer(&v[0]) })
	if ok {
		t.Fatal("misaligned block viewed")
	}
	for i := range xs {
		if math.Float64bits(v[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("v[%d] = %x, want %x", i, math.Float64bits(v[i]), math.Float64bits(xs[i]))
		}
	}
}

// TestReaderViewCapped: Reader.View aliases the message with cap == len, so
// an append to a viewed payload reallocates and the bytes after it — in a
// reliable frame, the ack record and the CRC — stay intact.
func TestReaderViewCapped(t *testing.T) {
	w := NewWriter(0)
	w.RawBytes([]byte("view"))
	w.U64(0xfeedface)
	msg := w.Bytes()
	before := bytes.Clone(msg)
	r := NewReader(msg)
	v := r.View()
	if r.Err() != nil || string(v) != "view" || &v[0] != &msg[8] || cap(v) != len(v) {
		t.Fatalf("View = %q (cap %d, err %v); want a capped view of the message", v, cap(v), r.Err())
	}
	if grown := append(v, '!'); &grown[0] == &v[0] || !bytes.Equal(msg, before) || r.U64() != 0xfeedface {
		t.Fatal("append to a view wrote into the message")
	}
}
