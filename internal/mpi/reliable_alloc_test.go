//go:build !race

package mpi

import (
	"runtime"
	"testing"

	"triolet/internal/transport"
)

// dataOffset is where a data-only frame's payload starts: kind, seq, tag and
// the payload's length.
const dataOffset = 1 + 8 + 8 + 8

// A delivered message is a read-only view of the frame that carried it.
// Receiving 64 KiB over a lossless fabric allocates the receiver's ack, not
// the payload, and the payload shares its sender's frame with cap == len; a
// frame parked out of order is delivered the same way.
func TestReliableDeliveryAllocs(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2, Clock: newFakeClock()})
	defer f.Close()
	a, b := NewReliableComm(f, 0, ReliableConfig{}), NewReliableComm(f, 1, ReliableConfig{})
	payload := make([]byte, 64<<10)
	const rounds = 16
	var ms runtime.MemStats
	var allocated uint64
	for seq := range uint64(rounds) {
		if err := a.Send(1, 3, payload); err != nil {
			t.Fatal(err)
		}
		a.rel.mu.Lock()
		frame := a.rel.slot(1, seq).frame
		a.rel.mu.Unlock()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m, err := b.Recv(0, 3)
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - before
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Payload) != len(payload) || &m.Payload[0] != &frame[dataOffset] || cap(m.Payload) != len(m.Payload) {
			t.Fatalf("message %d: len %d, cap %d, not a capped view of its frame", seq, len(m.Payload), cap(m.Payload))
		}
	}
	if per := allocated / rounds; per >= 4<<10 {
		t.Fatalf("receiving 64 KiB allocates %d B; want < 4 KiB", per)
	}

	r := NewReliableComm(f, 0, ReliableConfig{}).rel
	frames := [][]byte{dataFrame(0, 3, payload), dataFrame(1, 4, payload)}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, i := range []int{1, 0} {
		if err := r.handleFrame(transport.Message{Src: 1, Tag: tagRelData, Payload: frames[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.queue) != 2 {
		t.Fatalf("%d of 2 messages delivered", len(r.queue))
	}
	for i, m := range r.queue {
		if p := m.Payload; &p[0] != &frames[i][dataOffset] || len(p) != len(payload) || cap(p) != len(p) {
			t.Fatalf("message %d (tag %d): len %d, cap %d, not a capped view of its frame", i, m.Tag, len(p), cap(p))
		}
	}
}
