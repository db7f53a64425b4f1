package serial_test

import (
	"fmt"

	"triolet/internal/serial"
)

// Codecs compose: a slice-of-pairs codec built from primitives, round-
// tripped through bytes as it would be across the cluster fabric.
func ExampleMarshal() {
	codec := serial.SliceOf(serial.PairOf(serial.IntC(), serial.F64s()))
	in := []serial.PairV[int, []float64]{
		{Fst: 1, Snd: []float64{0.5}},
		{Fst: 2, Snd: []float64{1.5, 2.5}},
	}
	out, err := serial.Unmarshal(codec, serial.Marshal(codec, in))
	fmt.Println(err, out[1].Fst, out[1].Snd)
	// Output: <nil> 2 [1.5 2.5]
}
