package serial_test

import (
	"fmt"

	"triolet/internal/serial"
)

// point is a packed record: two float64 words, no padding.
type point struct{ X, Y float64 }

// Codecs compose: a codec for a slice of point arrays, each array one block
// copy, round-tripped through bytes as it would be across the cluster fabric.
func ExampleMarshal() {
	codec := serial.SliceOf(serial.Records[point, float64]())
	in := [][]point{
		{{X: 0.5, Y: 1}},
		{{X: 1.5, Y: 2}, {X: 2.5, Y: 3}},
	}
	out, err := serial.Unmarshal(codec, serial.Marshal(codec, in))
	fmt.Println(err, len(out[1]), out[1][1])
	// Output: <nil> 2 {2.5 3}
}
