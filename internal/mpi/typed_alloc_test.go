//go:build !race

package mpi

import (
	"runtime"
	"testing"
	"unsafe"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// heapBytes reports the mean heap bytes one call of f allocates over runs
// rounds of pre, f, post. Only f is measured: pre and post are a peer's half
// of the collective.
func heapBytes(runs int, pre, f, post func()) uint64 {
	var before, after runtime.MemStats
	var total uint64
	for range runs {
		pre()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		post()
		total += after.TotalAlloc - before.TotalAlloc
	}
	return total / uint64(runs)
}

// The root's own part never crosses the codec: on one rank the four typed
// collectives of 1 MiB allocate next to nothing, and on two the root
// allocates only what it marshals for, or decodes from, its peer. The root's
// ScatterT part shares parts[root]'s storage and BcastT returns its argument
// (the by-reference contract every kernel on the root reads its input under).
// Both ranks run on one goroutine: direct sends are buffered, so the side
// that only sends goes first.
func TestTypedCollectivesRootAllocs(t *testing.T) {
	const n, runs, slack = 1 << 17, 8, 64 << 10 // 1 MiB of float64
	codec := serial.F64s()
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	add := func(a, b []float64) []float64 {
		for i := range a {
			a[i] += b[i]
		}
		return a
	}
	part := uint64(len(serial.Marshal(codec, vec())))

	for _, ranks := range []int{1, 2} {
		f := transport.New(transport.Config{Ranks: ranks})
		root, peer := NewComm(f, 0), NewComm(f, ranks-1)
		parts := make([][]float64, ranks)
		for i := range parts {
			parts[i] = vec()
		}
		mine := vec()
		// peerSide returns the peer's half of a collective; on one rank
		// there is no peer.
		peerSide := func(fn func(*Comm) error) func() {
			return func() {
				if ranks == 1 {
					return
				}
				if err := fn(peer); err != nil {
					t.Fatal(err)
				}
			}
		}
		none := func() {}
		limit := uint64(slack)
		if ranks == 2 {
			limit += part
		}
		check := func(name string, got uint64) {
			t.Helper()
			if got >= limit {
				t.Errorf("%d rank(s): root %s allocates %d bytes, want < %d", ranks, name, got, limit)
			}
		}

		check("ScatterT", heapBytes(runs, none, func() {
			got, err := ScatterT(root, 0, codec, parts)
			if err != nil || &got[0] != &parts[0][0] {
				t.Fatalf("root's ScatterT part does not share parts[root] (err %v)", err)
			}
		}, peerSide(func(c *Comm) error { _, err := ScatterT(c, 0, codec, nil); return err })))
		check("GatherT", heapBytes(runs,
			peerSide(func(c *Comm) error { _, err := GatherT(c, 0, codec, mine); return err }),
			func() {
				all, err := GatherT(root, 0, codec, mine)
				if err != nil || &all[0][0] != &mine[0] {
					t.Fatalf("root's GatherT entry is not its own value (err %v)", err)
				}
			}, none))
		check("BcastT", heapBytes(runs, none, func() {
			got, err := BcastT(root, 0, codec, mine)
			if err != nil || &got[0] != &mine[0] {
				t.Fatalf("root's BcastT does not return its argument (err %v)", err)
			}
		}, peerSide(func(c *Comm) error { _, err := BcastT(c, 0, codec, nil); return err })))
		check("ReduceT", heapBytes(runs,
			peerSide(func(c *Comm) error { _, _, err := ReduceT(c, codec, mine, add); return err }),
			func() {
				got, ok, err := ReduceT(root, codec, mine, add)
				if err != nil || !ok || &got[0] != &mine[0] {
					t.Fatalf("root's ReduceT does not fold into its own value (ok %v, err %v)", ok, err)
				}
			}, none))
		f.Close()
	}
}

// A rank reads what it receives in place: at two direct-mode ranks,
// receiving 1 MiB of F64s allocates next to nothing in the peer's ScatterT
// and BcastT and in the root's GatherT decode, and the result is a view of
// the payload that arrived. The sender's half is the byte-level collective
// each typed one rides on, so the test holds the very bytes it sent.
func TestTypedCollectivesPeerAllocs(t *testing.T) {
	const n, runs, slack = 1 << 17, 8, 64 << 10 // 1 MiB of float64
	codec := serial.F64s()
	payload := serial.Marshal(codec, make([]float64, n))
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	root, peer := NewComm(f, 0), NewComm(f, 1)
	var got []float64
	send := func(fn func() error) func() {
		return func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}
	}
	none := func() {}
	check := func(name string, bytes uint64) {
		t.Helper()
		if bytes >= slack {
			t.Errorf("%s allocates %d bytes to receive %d, want < %d", name, bytes, len(payload), slack)
		}
		if len(got) != n || unsafe.Pointer(&got[0]) != unsafe.Pointer(&payload[8]) {
			t.Errorf("%s result is not a view of the payload that arrived", name)
		}
	}

	check("peer's ScatterT", heapBytes(runs,
		send(func() error { _, err := root.scatterPayload(0, [][]byte{nil, payload}, true); return err }),
		send(func() (err error) { got, err = ScatterT(peer, 0, codec, nil); return err }), none))
	check("peer's BcastT", heapBytes(runs,
		send(func() error { _, err := root.bcastPayload(0, payload, true); return err }),
		send(func() (err error) { got, err = BcastT(peer, 0, codec, nil); return err }), none))
	check("root's GatherT", heapBytes(runs,
		send(func() error { _, err := peer.gatherPayload(0, payload, true); return err }),
		send(func() error {
			all, err := GatherT(root, 0, codec, nil)
			if err == nil {
				got = all[1]
			}
			return err
		}), none))
}
