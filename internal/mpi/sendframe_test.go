package mpi

import (
	"bytes"
	"testing"

	"triolet/internal/transport"
)

// TestSendFrameMatchesSendHead: a body sent in its own frame buffer puts on
// the wire exactly the frame SendHead builds from the same head and body —
// alone, with an owed ack riding behind it, and with beats that outgrow
// FrameTail, which reallocate the frame once — and is delivered whole. Sent
// to this rank, the body is delivered as it is, without a copy.
func TestSendFrameMatchesSendHead(t *testing.T) {
	head, body := []byte("result head"), bytes.Repeat([]byte{7}, 300)
	for _, tc := range []struct {
		name  string
		owed  bool
		beats int
	}{{"alone", false, 0}, {"with ack", true, 0}, {"past the tail", true, 3}} {
		var frames [2][]byte
		for side := range frames {
			f := transport.New(transport.Config{Ranks: 2, Clock: newFakeClock()})
			a, b := NewReliableComm(f, 0, ReliableConfig{}), NewReliableComm(f, 1, ReliableConfig{})
			a.rel.owed[1] = tc.owed
			for range tc.beats {
				if err := a.SendBeat(1, 9, bytes.Repeat([]byte{5}, 100)); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if side == 0 {
				err = a.SendHead(a.Context(), 1, 3, head, body)
			} else {
				buf := make([]byte, FrameHead, FrameHead+len(head)+len(body)+FrameTail)
				err = a.SendFrame(1, 3, append(append(buf, head...), body...))
			}
			if err != nil {
				t.Fatal(err)
			}
			frames[side] = a.rel.slot(1, 0).frame
			m, err := b.Recv(0, 3)
			if err != nil || !bytes.Equal(m.Payload, append(append([]byte(nil), head...), body...)) {
				t.Fatalf("%s: delivered %d bytes (%v)", tc.name, len(m.Payload), err)
			}
			f.Close()
		}
		if !bytes.Equal(frames[0], frames[1]) {
			t.Errorf("%s: SendFrame's frame (%d B) differs from SendHead's (%d B)", tc.name, len(frames[1]), len(frames[0]))
		}
	}

	f := transport.New(transport.Config{Ranks: 1})
	defer f.Close()
	c := NewReliableComm(f, 0, ReliableConfig{})
	buf := append(make([]byte, FrameHead), body...)
	if err := c.SendFrame(0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if m, err := c.Recv(0, 3); err != nil || &m.Payload[0] != &buf[FrameHead] || len(m.Payload) != len(body) {
		t.Fatalf("self-send: %d bytes, a view of the body: %v (%v)", len(m.Payload), err == nil && &m.Payload[0] == &buf[FrameHead], err)
	}
}
