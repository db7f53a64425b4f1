package serial

import (
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

// DecodeInto decodes a slice that c encoded straight into dst, which the
// slice must fill exactly: a block codec (F64s, F32s, I64s) copies the words
// in place, any other codec decodes and copies. A slice of another length
// fails r and leaves dst unspecified.
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

// blockCodec is the codec of fixed-width numbers whose wire layout is their
// little-endian memory layout: a length, then the words.
type blockCodec[E RawElem] struct{ Funcs[[]E] }

func (c blockCodec[E]) decodeInto(r *Reader, dst []E) {
	var zero E
	if _, b := r.block(int(unsafe.Sizeof(zero)), len(dst)); b != nil {
		rawInto(dst, b)
	}
}

// F64s is the codec for []float64 (block encoded).
func F64s() Codec[[]float64] {
	return blockCodec[float64]{Funcs[[]float64]{Enc: (*Writer).F64Slice, Dec: (*Reader).F64Slice}}
}

// F32s is the codec for []float32 (block encoded).
func F32s() Codec[[]float32] {
	return blockCodec[float32]{Funcs[[]float32]{Enc: (*Writer).F32Slice, Dec: (*Reader).F32Slice}}
}

// I64s is the codec for []int64 (block encoded).
func I64s() Codec[[]int64] {
	return blockCodec[int64]{Funcs[[]int64]{Enc: (*Writer).I64Slice, Dec: (*Reader).I64Slice}}
}

// Ints is the codec for []int.
func Ints() Codec[[]int] {
	return Funcs[[]int]{
		Enc: func(w *Writer, v []int) { w.IntSlice(v) },
		Dec: func(r *Reader) []int { return r.IntSlice() },
	}
}

// IntC is the codec for a single int.
func IntC() Codec[int] {
	return Funcs[int]{
		Enc: func(w *Writer, v int) { w.Int(v) },
		Dec: func(r *Reader) int { return r.Int() },
	}
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

// PairOf combines two codecs into a codec for a pair, encoded first-then-
// second.
func PairOf[A, B any](a Codec[A], b Codec[B]) Codec[PairV[A, B]] {
	return Funcs[PairV[A, B]]{
		Enc: func(w *Writer, v PairV[A, B]) {
			a.Encode(w, v.Fst)
			b.Encode(w, v.Snd)
		},
		Dec: func(r *Reader) PairV[A, B] {
			return PairV[A, B]{Fst: a.Decode(r), Snd: b.Decode(r)}
		},
	}
}

// PairV is the serializable pair used by PairOf.
type PairV[A, B any] struct {
	Fst A
	Snd B
}

// MatrixF64 is the codec for array.Matrix[float64]: shape header plus block
// encoded data.
func MatrixF64() Codec[array.Matrix[float64]] {
	return Funcs[array.Matrix[float64]]{
		Enc: func(w *Writer, m array.Matrix[float64]) {
			w.Int(m.H)
			w.Int(m.W)
			w.F64Slice(m.Data)
		},
		Dec: func(r *Reader) array.Matrix[float64] {
			h := r.Int()
			wd := r.Int()
			data := r.F64Slice()
			if r.Err() != nil || len(data) != h*wd {
				r.fail()
				return array.Matrix[float64]{}
			}
			return array.Matrix[float64]{H: h, W: wd, Data: data}
		},
	}
}

// MatrixF32 is the codec for array.Matrix[float32].
func MatrixF32() Codec[array.Matrix[float32]] {
	return Funcs[array.Matrix[float32]]{
		Enc: func(w *Writer, m array.Matrix[float32]) {
			w.Int(m.H)
			w.Int(m.W)
			w.F32Slice(m.Data)
		},
		Dec: func(r *Reader) array.Matrix[float32] {
			h := r.Int()
			wd := r.Int()
			data := r.F32Slice()
			if r.Err() != nil || len(data) != h*wd {
				r.fail()
				return array.Matrix[float32]{}
			}
			return array.Matrix[float32]{H: h, W: wd, Data: data}
		},
	}
}

// Unit is the codec for struct{} (zero bytes), used for control messages.
func Unit() Codec[struct{}] {
	return Funcs[struct{}]{
		Enc: func(*Writer, struct{}) {},
		Dec: func(*Reader) struct{} { return struct{}{} },
	}
}
