package cluster

import (
	"bytes"
	"testing"
	"time"

	"triolet/internal/serial"
)

// FuzzMuxFrames feeds arbitrary bytes to both decoders of the farm wire
// format. Neither may panic or hang, whatever a decoder accepts must be
// bounded by the bytes it was given (a length header cannot buy memory),
// and an accepted frame must survive a re-encode unchanged.
func FuzzMuxFrames(f *testing.F) {
	a := MuxAssignment{Job: "\x00farm7", Kernel: "fuzz.kernel", Task: 3, Payload: []byte("payload")}
	seeds := [][]byte{
		encodeMuxTask(false, a),
		encodeMuxTask(true, MuxAssignment{}),
		encodeMuxResult(MuxEvent{Job: a.Job, Task: a.Task, OK: true, Result: []byte("out"), Elapsed: 250 * time.Microsecond}),
		encodeMuxResult(MuxEvent{Job: a.Job, Task: a.Task, Err: "kernel refused"}),
	}
	// The seeds are round-trips: what went in comes back out.
	if stop, got, err := decodeMuxTask(seeds[0]); err != nil || stop || !sameAssignment(got, a) {
		f.Fatalf("task round-trip = %v, %+v, %v", stop, got, err)
	}
	if stop, _, err := decodeMuxTask(seeds[1]); err != nil || !stop {
		f.Fatalf("stop-frame round-trip = %v, %v", stop, err)
	}
	if ev, err := decodeMuxResult(2, seeds[2]); err != nil || !ev.OK || ev.Worker != 2 || ev.Job != a.Job ||
		ev.Task != a.Task || string(ev.Result) != "out" || ev.Elapsed != 250*time.Microsecond {
		f.Fatalf("result round-trip = %+v, %v", ev, err)
	}
	if ev, err := decodeMuxResult(2, seeds[3]); err != nil || ev.OK || ev.Err != "kernel refused" {
		f.Fatalf("failure round-trip = %+v, %v", ev, err)
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(append(bytes.Clone(s), 0)) // trailing byte
		f.Add(s[:len(s)/2])              // torn frame
	}
	absurd := serial.NewWriter(16)
	absurd.Bool(false)
	absurd.Int(1 << 50) // absurd length header
	f.Add(absurd.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if stop, a, err := decodeMuxTask(data); err == nil {
			if a.Task < 0 || len(a.Job)+len(a.Kernel)+len(a.Payload) > len(data) {
				t.Fatalf("accepted task %+v from %d bytes", a, len(data))
			}
			stop2, a2, err := decodeMuxTask(encodeMuxTask(stop, a))
			if err != nil || stop2 != stop || !sameAssignment(a2, a) {
				t.Fatalf("task re-encode: %v, %+v, %v; want %v, %+v", stop2, a2, err, stop, a)
			}
		}
		if ev, err := decodeMuxResult(1, data); err == nil {
			if ev.Task < 0 || ev.Elapsed < 0 || len(ev.Job)+len(ev.Result)+len(ev.Err) > len(data) {
				t.Fatalf("accepted result %+v from %d bytes", ev, len(data))
			}
			ev2, err := decodeMuxResult(1, encodeMuxResult(ev))
			if err != nil || ev2.Job != ev.Job || ev2.Task != ev.Task || ev2.OK != ev.OK ||
				ev2.Elapsed != ev.Elapsed || ev2.Err != ev.Err || !bytes.Equal(ev2.Result, ev.Result) {
				t.Fatalf("result re-encode: %+v, %v; want %+v", ev2, err, ev)
			}
		}
	})
}

func sameAssignment(a, b MuxAssignment) bool {
	return a.Job == b.Job && a.Kernel == b.Kernel && a.Task == b.Task && bytes.Equal(a.Payload, b.Payload)
}

// TestMuxFrameAllocs: each encoder allocates one buffer, of exactly the
// frame's size, and a decoder allocates only its strings — the task payload
// and the result are views of the frame, which its receiver owns.
func TestMuxFrameAllocs(t *testing.T) {
	a := MuxAssignment{Job: "\x00farm7", Kernel: "fuzz.kernel", Task: 3, Payload: bytes.Repeat([]byte{7}, 4096)}
	done := MuxEvent{Job: a.Job, Task: 3, OK: true, Result: bytes.Repeat([]byte{9}, 4096), Elapsed: time.Millisecond}
	failed := MuxEvent{Job: a.Job, Task: 3, Err: "kernel refused"}
	var task, result, failure []byte
	for name, encode := range map[string]func(){
		"task":    func() { task = encodeMuxTask(false, a) },
		"result":  func() { result = encodeMuxResult(done) },
		"failure": func() { failure = encodeMuxResult(failed) },
	} {
		if n := testing.AllocsPerRun(20, encode); n != 1 {
			t.Errorf("%s frame: %v allocations, want 1", name, n)
		}
	}
	for name, f := range map[string][]byte{"task": task, "result": result, "failure": failure} {
		if cap(f) != len(f) {
			t.Errorf("%s frame: %d bytes in a buffer of %d", name, len(f), cap(f))
		}
	}
	var got MuxAssignment
	if n := testing.AllocsPerRun(20, func() { _, got, _ = decodeMuxTask(task) }); n != 2 {
		t.Errorf("task decode: %v allocations, want 2 (job and kernel)", n)
	}
	if !sameAssignment(got, a) || &got.Payload[0] != &task[len(task)-len(a.Payload)] {
		t.Error("decoded task payload is not a view of the frame")
	}
	var ev MuxEvent
	if n := testing.AllocsPerRun(20, func() { ev, _ = decodeMuxResult(1, result) }); n != 1 {
		t.Errorf("result decode: %v allocations, want 1 (job)", n)
	}
	if !bytes.Equal(ev.Result, done.Result) || &ev.Result[0] != &result[len(result)-len(done.Result)] {
		t.Error("decoded result is not a view of the frame")
	}
}
