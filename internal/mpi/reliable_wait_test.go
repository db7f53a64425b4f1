package mpi

import (
	"context"
	"testing"
	"time"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// The reliable layer idles on its endpoint's mailbox, never on a poll tick.
// Each test removes every other way a wait could end, so that completing at
// all says why the waits returned (transport's own tests pin each reason).

// With the fabric clock frozen no deadline can ever pass; nothing here calls
// Wake (no beats, self-sends or crashes), the context is Background and the
// fabric stays open. A ping-pong that completes therefore proves every wait
// on both ranks ended because a frame arrived.
func TestReliablePingPongOnFrozenClockWakesOnArrivalOnly(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2, Clock: newFakeClock()})
	defer f.Close()
	cfg := ReliableConfig{AckTimeout: time.Millisecond, Retries: 2}
	a, b := NewReliableComm(f, 0, cfg), NewReliableComm(f, 1, cfg)

	const rounds = 200
	echoed := make(chan error, 1)
	go func() {
		for range rounds {
			m, err := b.Recv(0, 3)
			if err == nil {
				err = b.Send(0, 3, m.Payload)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	start := time.Now()
	for i := range rounds {
		if err := a.Send(1, 3, []byte{byte(i)}); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		if _, err := a.Recv(1, 3); err != nil {
			t.Fatalf("pong %d: %v", i, err)
		}
	}
	if err := <-echoed; err != nil {
		t.Fatalf("echo side: %v", err)
	}
	// Four hops a round; a single millisecond tick per hop would be 800ms.
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Errorf("%d round trips took %v: progress is waiting on a timer", rounds, took)
	}
	for name, c := range map[string]*Comm{"a": a, "b": b} {
		if s := c.ReliableStats(); s.Retries != 0 {
			t.Errorf("%s retransmitted on a frozen clock: %+v", name, s)
		}
	}
}

// A self-addressed send never touches the mailbox, so it must wake a
// receive already idling there. On a one-rank fabric nothing can arrive, so
// an Irecv that completes well inside its context deadline was ended by that
// wake, not by the deadline.
func TestReliableSelfSendWakesBlockedIrecv(t *testing.T) {
	for _, c := range []struct {
		name string
		send func(c *Comm) error
	}{
		{"send", func(c *Comm) error { return c.Send(0, 5, []byte("self")) }},
		{"beat", func(c *Comm) error { return c.SendBeat(0, 5, []byte("self")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := transport.New(transport.Config{Ranks: 1})
			defer f.Close()
			comm := NewReliableComm(f, 0, ReliableConfig{})
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			comm.SetContext(ctx)
			req := comm.Irecv(0, 5)
			time.Sleep(5 * time.Millisecond) // let the helper block
			if req.Test() {
				t.Fatal("Irecv complete before the send")
			}
			start := time.Now()
			if err := c.send(comm); err != nil {
				t.Fatal(err)
			}
			m, err := req.Wait()
			if err != nil {
				t.Fatalf("Irecv: %v", err)
			}
			if string(m.Payload) != "self" || m.Src != 0 {
				t.Fatalf("msg = %+v", m)
			}
			if took := time.Since(start); took > 100*time.Millisecond {
				t.Errorf("Irecv completed %v after the self-send", took)
			}
		})
	}
}

// A steady-state eager send allocates its frame and nothing else: the window
// slot, its retransmit state and the loss flags were allocated with the
// communicator. The frame is taken off the wire and acknowledged by hand, so
// only the send is measured; the yardstick is encoding the same frame alone.
func TestEagerSendAllocs(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	c := NewReliableComm(f, 0, ReliableConfig{AckTimeout: time.Second})
	payload := make([]byte, 64)
	var seq uint64
	send := testing.AllocsPerRun(200, func() {
		if err := c.Send(1, 3, payload); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := f.TryRecv(1, 0, tagRelData); err != nil || !ok {
			t.Fatalf("frame not on the wire: %v", err)
		}
		seq++
		c.rel.mu.Lock()
		err := c.rel.acked(1, seq, 0)
		c.rel.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	})
	frame := testing.AllocsPerRun(200, func() { dataFrame(seq, 3, payload) })
	if send != frame || c.rel.inflight != 0 {
		t.Fatalf("a send allocates %v times, its frame %v (%d in flight)", send, frame, c.rel.inflight)
	}
}

// An ack+beat frame is applied without allocating: it is walked in place
// twice, validated whole and then applied, and a beat with no payload
// delivers no bytes.
func TestCoalescedFrameAllocs(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	r := NewReliableComm(f, 0, ReliableConfig{}).rel
	w := serial.NewWriter(64)
	appendAckSub(w, 0, 1<<1)
	appendBeatSub(w, pendFrame{tag: 5})
	w.FinishCRC()
	m := transport.Message{Src: 1, Tag: tagRelAck, Payload: w.Bytes()}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := testing.AllocsPerRun(200, func() {
		if err := r.handleFrame(m); err != nil || len(r.queue) != 1 || r.queue[0].Tag != 5 {
			t.Fatalf("beat not delivered: %v, queue %+v", err, r.queue)
		}
		r.queue = r.queue[:0]
	})
	if n != 0 || r.stats.CorruptDropped != 0 {
		t.Fatalf("an ack+beat frame allocates %v times (%d dropped as corrupt)", n, r.stats.CorruptDropped)
	}
}
