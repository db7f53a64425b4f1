package serial

import (
	"fmt"
	"reflect"
	"unsafe"

	"triolet/internal/array"
)

// Codec serializes values of one type. Codecs compose: structured codecs
// are built from primitive ones the way Triolet derives serialization from
// algebraic data type definitions (paper §3.4).
type Codec[T any] interface {
	Encode(w *Writer, v T)
	Decode(r *Reader) T
}

// Funcs adapts an encode/decode function pair to a Codec.
type Funcs[T any] struct {
	Enc func(w *Writer, v T)
	Dec func(r *Reader) T
}

// Encode implements Codec.
func (f Funcs[T]) Encode(w *Writer, v T) { f.Enc(w, v) }

// Decode implements Codec.
func (f Funcs[T]) Decode(r *Reader) T { return f.Dec(r) }

// Marshal encodes v with c into a fresh byte slice.
func Marshal[T any](c Codec[T], v T) []byte {
	w := NewWriter(64)
	c.Encode(w, v)
	return w.Bytes()
}

// Unmarshal decodes a value of type T from b, reporting codec mismatches.
func Unmarshal[T any](c Codec[T], b []byte) (T, error) {
	r := NewReader(b)
	v := c.Decode(r)
	return v, r.Err()
}

// UnmarshalView is Unmarshal where each block of the value aliases b, with
// capacity equal to its length, when aliasable allows, and is copied
// otherwise. The value is read-only unless the caller owns b.
func UnmarshalView[T any](c Codec[T], b []byte) (T, error) {
	r := &Reader{buf: b, view: true}
	return c.Decode(r), r.Err()
}

// DecodeInto decodes a slice that c encoded straight into dst, which the
// slice must fill exactly: a block codec (F64s, F32s, I64s, Records) copies
// the words in place, any other codec decodes and copies. A slice of another
// length fails r and leaves dst unspecified.
func DecodeInto[T any](c Codec[[]T], r *Reader, dst []T) {
	if b, ok := c.(interface{ decodeInto(*Reader, []T) }); ok {
		b.decodeInto(r, dst)
		return
	}
	if v := c.Decode(r); r.Err() == nil && len(v) != len(dst) {
		r.fail()
	} else {
		copy(dst, v)
	}
}

// blockCodec is the codec of a slice whose wire layout is its memory layout
// on a little-endian host: a count, then the elements as words of E. T is E
// itself (F64s, F32s, I64s) or a packed record of E's (Records).
type blockCodec[T any, E RawElem] struct{}

// Encode implements Codec.
func (blockCodec[T, E]) Encode(w *Writer, v []T) { w.block(len(v), Raw(words[T, E](v))) }

// Decode implements Codec.
func (blockCodec[T, E]) Decode(r *Reader) []T { return readBlock[T, E](r) }

func (blockCodec[T, E]) decodeInto(r *Reader, dst []T) {
	var zero T
	if _, b := r.block(int(unsafe.Sizeof(zero)), len(dst)); b != nil {
		rawInto(words[T, E](dst), b)
	}
}

// words views the elements of v as the E words they are made of.
func words[T any, E RawElem](v []T) []E {
	var t T
	var e E
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(t)/unsafe.Sizeof(e)))
}

// readBlock reads a length-prefixed block of T's into fresh storage with one
// copy, or under UnmarshalView as a view of the message.
func readBlock[T any, E RawElem](r *Reader) []T {
	var zero T
	n, b := r.block(int(unsafe.Sizeof(zero)), -1)
	if b == nil {
		return nil
	}
	if r.view && n > 0 && aliasable[E](b) {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]T, n)
	rawInto(words[T, E](out), b)
	return out
}

// F64s is the codec for []float64 (block encoded).
func F64s() Codec[[]float64] { return blockCodec[float64, float64]{} }

// F32s is the codec for []float32 (block encoded).
func F32s() Codec[[]float32] { return blockCodec[float32, float32]{} }

// I64s is the codec for []int64 (block encoded).
func I64s() Codec[[]int64] { return blockCodec[int64, int64]{} }

// Ints is the codec for []int, as 64-bit words on every host.
func Ints() Codec[[]int] { return Funcs[[]int]{Enc: (*Writer).IntSlice, Dec: (*Reader).IntSlice} }

// Records is the block codec for []T where T is a packed record: a struct
// whose fields all have type E and no padding between or after them. Its
// memory layout is then its wire layout, a count and the records as
// little-endian E words, byte for byte what encoding each field in turn
// writes: a record array crosses the wire as one block copy, as the paper's
// runtime ships every pointer-free array (§3.4). T is checked once, here;
// any other type panics.
func Records[T any, E RawElem]() Codec[[]T] {
	var t T
	var e E
	if !packed(t, e, unsafe.Sizeof(t), unsafe.Sizeof(e)) {
		panic(fmt.Sprintf("serial: %T is not a packed record of %T", t, e))
	}
	return blockCodec[T, E]{}
}

// packed reports whether t, of tsize bytes, is a struct of one or more
// fields of e's type, of esize bytes each, with no padding.
func packed(t, e any, tsize, esize uintptr) bool {
	rt, et := reflect.TypeOf(t), reflect.TypeOf(e)
	if rt.Kind() != reflect.Struct || rt.NumField() == 0 || tsize != uintptr(rt.NumField())*esize {
		return false
	}
	for i := range rt.NumField() {
		if rt.Field(i).Type != et {
			return false
		}
	}
	return true
}

// I64C is the codec for a single int64.
func I64C() Codec[int64] {
	return Funcs[int64]{
		Enc: func(w *Writer, v int64) { w.U64(uint64(v)) },
		Dec: func(r *Reader) int64 { return int64(r.U64()) },
	}
}

// F64C is the codec for a single float64.
func F64C() Codec[float64] {
	return Funcs[float64]{
		Enc: func(w *Writer, v float64) { w.F64(v) },
		Dec: func(r *Reader) float64 { return r.F64() },
	}
}

// SliceOf lifts an element codec to a length-prefixed slice codec.
func SliceOf[T any](elem Codec[T]) Codec[[]T] {
	return Funcs[[]T]{
		Enc: func(w *Writer, v []T) {
			w.Int(len(v))
			for _, x := range v {
				elem.Encode(w, x)
			}
		},
		Dec: func(r *Reader) []T {
			n := r.Int()
			if r.Err() != nil || n < 0 || n > r.Remaining() {
				// A structured slice element occupies at least one byte, so
				// n > Remaining can only be a corrupt or mismatched stream;
				// refuse to allocate for it.
				r.fail()
				return nil
			}
			out := make([]T, 0, n)
			for range n {
				out = append(out, elem.Decode(r))
				if r.Err() != nil {
					return nil
				}
			}
			return out
		},
	}
}

// Matrix is the codec for array.Matrix[E]: the shape, then the data as one
// block. The decoded shape must be one the data fills exactly: negative
// sides, and a product that overflows or differs from the data's length,
// fail the reader.
func Matrix[E RawElem]() Codec[array.Matrix[E]] { return matrixCodec[E]{} }

// matrixCodec is a method type, not a Funcs: a port that inlines Matrix
// gets no copy of its encoder and decoder.
type matrixCodec[E RawElem] struct{ data blockCodec[E, E] }

// Encode implements Codec.
func (c matrixCodec[E]) Encode(w *Writer, m array.Matrix[E]) {
	w.Int(m.H)
	w.Int(m.W)
	c.data.Encode(w, m.Data)
}

// Decode implements Codec.
func (c matrixCodec[E]) Decode(r *Reader) array.Matrix[E] {
	h, wd := r.Int(), r.Int()
	d := c.data.Decode(r)
	if r.Err() != nil || h < 0 || wd < 0 || h > 0 && wd > len(d)/h || h*wd != len(d) {
		r.fail()
		return array.Matrix[E]{}
	}
	return array.Matrix[E]{H: h, W: wd, Data: d}
}

// Unit is the codec for struct{} (zero bytes), used for control messages.
func Unit() Codec[struct{}] {
	return Funcs[struct{}]{
		Enc: func(*Writer, struct{}) {},
		Dec: func(*Reader) struct{} { return struct{}{} },
	}
}
