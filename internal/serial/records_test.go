package serial

import (
	"bytes"
	"slices"
	"testing"
)

// The record shapes the ports ship: two, three and four float32 words.
type (
	vec2 struct{ X, Y float32 }
	vec3 struct{ X, Y, Z float32 }
	vec4 struct{ X, Y, Z, Q float32 }
)

// fieldwise is the per-field encoding Records replaces: the count, then
// every field of every record in turn.
func fieldwise[T any](v []T, fields func(T) []float32) []byte {
	w := NewWriter(0)
	w.Int(len(v))
	for _, x := range v {
		for _, f := range fields(x) {
			w.F32(f)
		}
	}
	return w.Bytes()
}

// checkRecords round-trips n records of T through Records and compares the
// bytes with the per-field encoding.
func checkRecords[T comparable](t *testing.T, n int, mk func(i int) T, fields func(T) []float32) {
	t.Helper()
	c := Records[T, float32]()
	v := make([]T, n)
	for i := range v {
		v[i] = mk(i)
	}
	enc := Marshal(c, v)
	if want := fieldwise(v, fields); !bytes.Equal(enc, want) {
		t.Fatalf("%T x %d: block bytes differ from the per-field encoding", v, n)
	}
	got, err := Unmarshal(c, enc)
	if err != nil || !slices.Equal(got, v) {
		t.Fatalf("%T x %d: round trip %v", v, n, err)
	}
	into, r := make([]T, n), NewReader(enc)
	if DecodeInto(c, r, into); r.Err() != nil || !slices.Equal(into, v) {
		t.Fatalf("%T x %d: decode into %v", v, n, r.Err())
	}
}

func TestRecordsMatchFieldwise(t *testing.T) {
	f := func(i, k int) float32 { return float32(i)*1.5 - float32(k) }
	for _, n := range []int{0, 1, 1000} {
		checkRecords(t, n, func(i int) vec2 { return vec2{f(i, 0), f(i, 1)} },
			func(v vec2) []float32 { return []float32{v.X, v.Y} })
		checkRecords(t, n, func(i int) vec3 { return vec3{f(i, 0), f(i, 1), f(i, 2)} },
			func(v vec3) []float32 { return []float32{v.X, v.Y, v.Z} })
		checkRecords(t, n, func(i int) vec4 { return vec4{f(i, 0), f(i, 1), f(i, 2), f(i, 3)} },
			func(v vec4) []float32 { return []float32{v.X, v.Y, v.Z, v.Q} })
	}
}

// TestRecordsAllocsFlat: a round trip is one block copy each way, so its
// allocation count does not grow with the number of records.
func TestRecordsAllocsFlat(t *testing.T) {
	c := Records[vec4, float32]()
	allocs := func(n int) float64 {
		v := make([]vec4, n)
		return testing.AllocsPerRun(5, func() {
			if got, err := Unmarshal(c, Marshal(c, v)); err != nil || len(got) != n {
				t.Fatalf("round trip of %d: %d records, %v", n, len(got), err)
			}
		})
	}
	if small, big := allocs(1000), allocs(100_000); small != big {
		t.Errorf("allocations per round trip: %v at 1 000 records, %v at 100 000", small, big)
	}
}

// TestRecordsRefusesUnpackedTypes: a type whose memory layout is not its
// wire layout panics when the codec is built.
func TestRecordsRefusesUnpackedTypes(t *testing.T) {
	for name, build := range map[string]func(){
		"padded": func() {
			Records[struct {
				X, Y, Z float32
				_       [0]float64
			}, float32]()
		},
		"mixed width": func() {
			Records[struct {
				A, B float32
				C    float64
			}, float32]()
		},
		"pointer field": func() {
			Records[struct {
				X float32
				P *float32
			}, float32]()
		},
		"no fields":    func() { Records[struct{}, float32]() },
		"not a struct": func() { Records[float32, float32]() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: codec built", name)
				}
			}()
			build()
		}()
	}
}
