package serial

import (
	"fmt"
	"unsafe"
)

// Zero-copy wire representation for pointer-free element slices.
//
// The generic codecs in this package copy every element through a Writer
// (encode) and a Reader (decode). For the bulk payloads the runtime actually
// ships — float and integer arrays — that copy buys nothing on the
// in-process fabric: the bytes are already laid out exactly as the wire
// format prescribes (fixed-width little-endian elements, no padding, no
// pointers). Raw exposes that layout directly: encoding aliases the backing
// array as a []byte, and decoding aliases the received payload as a []E
// when alignment allows, copying only when it does not.
//
// The wire format is the element body of the corresponding slice codec —
// Raw(xs) equals Marshal(F64s(), xs) minus the leading 8-byte length prefix
// (the payload length carries the count) — so Raw payloads interoperate
// with readers that know the element type.
//
// Aliasing contract: the caller of Raw must not mutate xs until every
// consumer of the returned bytes is done with them, and a consumer of
// RawView must treat the result as read-only unless it owns the input
// buffer. The transport layer upholds its side via Fabric.SendShared,
// which meters the payload like any send but skips the defensive copy and
// copies on write under corrupt-fault injection.

// RawElem constrains Raw's element types to pointer-free fixed-width
// numerics whose in-memory layout equals their wire layout on a
// little-endian host.
type RawElem interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// hostLittleEndian reports whether the host stores integers little-endian;
// on big-endian hosts Raw and RawView fall back to byte-swapping copies so
// the wire format stays little-endian everywhere.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// Raw returns the little-endian wire bytes of xs. On a little-endian host
// this is a zero-copy alias of xs's backing array: the caller must not
// mutate xs while the bytes are in flight. A nil or empty slice encodes as
// nil.
func Raw[E RawElem](xs []E) []byte {
	if len(xs) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(xs[0]))
	if !hostLittleEndian {
		return rawSwap(xs, size)
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*size)
}

// RawView decodes a Raw payload as a []E. On a little-endian host with an
// element-aligned buffer the result aliases b — zero copies, read-only
// unless the caller owns b; otherwise the elements are copied out. The
// payload length must be a multiple of the element size.
func RawView[E RawElem](b []byte) ([]E, error) {
	var zero E
	size := int(unsafe.Sizeof(zero))
	if len(b)%size != 0 {
		return nil, fmt.Errorf("serial: raw payload of %d bytes is not a multiple of element size %d", len(b), size)
	}
	n := len(b) / size
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(unsafe.Alignof(zero)) == 0 {
		return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
	}
	return rawCopyOut[E](b, n), nil
}

// RawCopy decodes a Raw payload into freshly allocated elements the caller
// may mutate freely, regardless of the payload's alignment.
func RawCopy[E RawElem](b []byte) ([]E, error) {
	var zero E
	size := int(unsafe.Sizeof(zero))
	if len(b)%size != 0 {
		return nil, fmt.Errorf("serial: raw payload of %d bytes is not a multiple of element size %d", len(b), size)
	}
	n := len(b) / size
	if n == 0 {
		return nil, nil
	}
	return rawCopyOut[E](b, n), nil
}

// RawAliases reports whether RawView[E] of b would alias b rather than
// copy: exported so tests can pin down when the zero-copy path engages.
func RawAliases[E RawElem](b []byte) bool {
	var zero E
	size := int(unsafe.Sizeof(zero))
	return hostLittleEndian && len(b) > 0 && len(b)%size == 0 &&
		uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(unsafe.Alignof(zero)) == 0
}

// rawSwap encodes xs element-wise with reversed byte order — the
// big-endian-host fallback that keeps the wire little-endian.
func rawSwap[E RawElem](xs []E, size int) []byte {
	src := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*size)
	out := make([]byte, len(src))
	for i := 0; i < len(out); i += size {
		for j := 0; j < size; j++ {
			out[i+j] = src[i+size-1-j]
		}
	}
	return out
}

// rawCopyOut decodes the n little-endian elements of b into fresh storage,
// honoring host byte order.
func rawCopyOut[E RawElem](b []byte, n int) []E {
	out := make([]E, n)
	rawInto(out, b)
	return out
}

// rawInto decodes the little-endian elements of b into out, which holds
// exactly len(b) bytes of them: one block copy on a little-endian host.
func rawInto[E RawElem](out []E, b []byte) {
	dst := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), len(b))
	if hostLittleEndian {
		copy(dst, b)
		return
	}
	var zero E
	size := int(unsafe.Sizeof(zero))
	for i := 0; i < len(b); i += size {
		for j := 0; j < size; j++ {
			dst[i+j] = b[i+size-1-j]
		}
	}
}
