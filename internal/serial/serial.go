// Package serial is the serialization runtime of the virtual cluster — the
// analog of Triolet's compiler-generated serialization (paper §3.4). Every
// value crossing a node boundary is flattened to bytes and rebuilt on the
// receiving side; pointer-free numeric arrays are block-copied, as the paper
// does to minimize serialization time. Codecs for structured types are
// composed from primitive read/write operations, mirroring how Triolet
// derives serializers from algebraic data type definitions.
package serial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShortBuffer is reported when a decoder runs past the end of a message.
var ErrShortBuffer = errors.New("serial: read past end of buffer")

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message. The slice aliases the writer's buffer;
// the caller must not keep writing through the Writer afterwards.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the writer for reuse, keeping its buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int appends an int as a fixed-width 64-bit value.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// F64 appends a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F32 appends a float32.
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// RawBytes appends a length-prefixed byte slice.
func (w *Writer) RawBytes(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// F64Slice appends a length-prefixed []float64 as one block copy (the
// pointer-free-array fast path).
func (w *Writer) F64Slice(xs []float64) { w.block(len(xs), Raw(xs)) }

// F32Slice appends a length-prefixed []float32.
func (w *Writer) F32Slice(xs []float32) { w.block(len(xs), Raw(xs)) }

// I64Slice appends a length-prefixed []int64.
func (w *Writer) I64Slice(xs []int64) { w.block(len(xs), Raw(xs)) }

// block appends the count n of a block of words, then the words' bytes.
func (w *Writer) block(n int, b []byte) {
	w.Int(n)
	w.buf = append(w.buf, b...)
}

// IntSlice appends a length-prefixed []int (64-bit each).
func (w *Writer) IntSlice(xs []int) {
	w.Int(len(xs))
	w.buf = growBy(w.buf, 8*len(xs))
	off := len(w.buf) - 8*len(xs)
	for i, v := range xs {
		binary.LittleEndian.PutUint64(w.buf[off+8*i:], uint64(v))
	}
}

func growBy(b []byte, n int) []byte {
	l := len(b)
	if l+n <= cap(b) {
		return b[:l+n]
	}
	nb := make([]byte, l+n, max(2*cap(b), l+n))
	copy(nb, b)
	return nb
}

// Reader decodes a message produced by Writer. Errors are sticky: after the
// first short read every subsequent read returns zero values, and Err
// reports the failure. Message-level framing is validated by the transport,
// so decode errors indicate a codec mismatch — a programming error —
// surfaced at the call site that checks Err.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader over an encoded message.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err reports the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w (pos %d of %d)", ErrShortBuffer, r.pos, len(r.buf))
	}
}

func (r *Reader) take(n int) []byte {
	// Compare with subtraction: r.pos+n can overflow for adversarial n.
	if r.err != nil || n < 0 || n > len(r.buf)-r.pos {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a fixed-width uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F32 reads a float32.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Int()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// RawBytes reads a length-prefixed byte slice, copying out of the message.
func (r *Reader) RawBytes() []byte {
	n := r.Int()
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// View reads a length-prefixed byte slice like RawBytes, without the copy:
// the result aliases the message.
func (r *Reader) View() []byte { return r.take(r.Int()) }

// block reads the length prefix of a block of size-byte words, then the
// block: any count the bytes left can hold when want < 0, else exactly want.
// The count is checked before multiplying: size*n can overflow for an
// adversarial length header. A refused block reads as (0, nil).
func (r *Reader) block(size, want int) (int, []byte) {
	n := r.Int()
	if r.err != nil || n < 0 || n > r.Remaining()/size || want >= 0 && n != want {
		r.fail()
		return 0, nil
	}
	return n, r.take(size * n)
}

// F64Slice reads a length-prefixed []float64.
func (r *Reader) F64Slice() []float64 {
	n, b := r.block(8, -1)
	if b == nil {
		return nil
	}
	return rawCopyOut[float64](b, n)
}

// F32Slice reads a length-prefixed []float32.
func (r *Reader) F32Slice() []float32 {
	n, b := r.block(4, -1)
	if b == nil {
		return nil
	}
	return rawCopyOut[float32](b, n)
}

// I64Slice reads a length-prefixed []int64.
func (r *Reader) I64Slice() []int64 {
	n, b := r.block(8, -1)
	if b == nil {
		return nil
	}
	return rawCopyOut[int64](b, n)
}

// IntSlice reads a length-prefixed []int.
func (r *Reader) IntSlice() []int {
	n, b := r.block(8, -1)
	if b == nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
