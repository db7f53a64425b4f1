package mpi

import (
	"bytes"
	"context"
	"slices"
	"syscall"
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

// An owner loop idling toward a retransmission sleeps on the mailbox timer;
// it does not spin. A frame to a peer that never pumps is due again every
// 500 µs, a deadline the host timer serves at its ~1.1 ms tick: 50 ms of
// TryRecv + Idle must leave the CPU mostly idle, and still retransmit, at
// the timer's pace rather than in a storm.
func TestReliableIdleTowardRetransmitSleeps(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	const rto = 500 * time.Microsecond
	c := NewReliableComm(f, 0, ReliableConfig{AckTimeout: rto, MaxAckTimeout: rto, BackoffJitter: -1, Retries: 1 << 20})
	if err := c.Send(1, 3, []byte{1}); err != nil {
		t.Fatal(err)
	}
	const span = 50 * time.Millisecond
	ctx := context.Background()
	cpu0 := processCPU(t)
	start := time.Now()
	for time.Since(start) < span {
		gen := c.ep.Gen()
		if _, _, err := c.TryRecv(1, 3); err != nil {
			t.Fatal(err)
		}
		c.Idle(ctx, gen, start.Add(span))
	}
	wall, cpu := time.Since(start), processCPU(t)-cpu0
	retries := c.ReliableStats().Retries
	t.Logf("%v of CPU in %v, %d retransmissions", cpu, wall, retries)
	if frac := cpu.Seconds() / wall.Seconds(); frac >= 0.5 {
		t.Errorf("the idle loop used %.2f of a CPU, want < 0.5: it spins toward the retransmission", frac)
	}
	if retries < 10 || retries > 100 {
		t.Errorf("%d retransmissions in %v, want 10..100", retries, span)
	}
}

// processCPU is the user plus system time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
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

// SendHead is SendCtx of head‖payload without building it: the same bytes
// arrive on the same tag in direct mode, in reliable mode and sent to oneself,
// and in reliable mode the frame — the data, an owed ack, a buffered beat, the
// CRC — is the one buffer the send allocates, at exactly its size.
func TestSendHeadAllocs(t *testing.T) {
	ctx := context.Background()
	head, payload := []byte("head"), bytes.Repeat([]byte{7}, 64)
	want := slices.Concat(head, payload)
	for _, reliable := range []bool{false, true} {
		f := transport.New(transport.Config{Ranks: 2})
		defer f.Close()
		a, b := NewComm(f, 0), NewComm(f, 1)
		if reliable {
			a, b = NewReliableComm(f, 0, ReliableConfig{}), NewReliableComm(f, 1, ReliableConfig{})
		}
		for _, to := range []*Comm{b, a} {
			if err := a.SendHead(ctx, to.Rank(), 3, head, payload); err != nil {
				t.Fatal(err)
			}
			if m, err := to.RecvCtx(ctx, 0, 3); err != nil || !bytes.Equal(m.Payload, want) {
				t.Fatalf("reliable %v, rank 0 to %d: %q (%v), want %q", reliable, to.Rank(), m.Payload, err, want)
			}
		}
	}

	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	c := NewReliableComm(f, 0, ReliableConfig{AckTimeout: time.Second})
	if err := c.SendBeat(1, 5, []byte("beat")); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	n := testing.AllocsPerRun(200, func() {
		c.rel.mu.Lock()
		c.rel.owed[1] = true
		c.rel.mu.Unlock()
		if err := c.SendHead(ctx, 1, 3, head, payload); err != nil {
			t.Fatal(err)
		}
		size := 1 + 8 + 8 + 8 + len(want) + ackRecordLen + 4
		if seq == 0 {
			size += 1 + 8 + 8 + len("beat") // the beat rides the first frame
		}
		m, ok, err := f.TryRecv(1, 0, tagRelData)
		if err != nil || !ok || len(m.Payload) != size || cap(m.Payload) != size {
			t.Fatalf("frame %d: %d bytes in a buffer of %d (%v), want %d", seq, len(m.Payload), cap(m.Payload), err, size)
		}
		seq++
		c.rel.mu.Lock()
		err = c.rel.acked(1, seq, 0)
		c.rel.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Fatalf("a SendHead allocates %v times, want 1: its frame", n)
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

// A duplicate data frame is acknowledged without a copy of its payload: the
// first delivery copies the payload out of the frame, a repeat only owes its
// sender the ack, and the pump's flush pays for that ack's frame alone.
func TestDuplicateFrameAllocs(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	r := NewReliableComm(f, 0, ReliableConfig{}).rel
	payload := make([]byte, 4096)
	frames := make([]transport.Message, 201) // AllocsPerRun's warm-up, then its 200 runs
	for seq := range frames {
		frames[seq] = transport.Message{Src: 1, Tag: tagRelData, Payload: dataFrame(uint64(seq), 3, payload)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := 0
	fresh := testing.AllocsPerRun(200, func() {
		if err := r.handleFrame(frames[next]); err != nil || len(r.queue) != 1 {
			t.Fatalf("frame %d not delivered: %v", next, err)
		}
		r.queue, next = r.queue[:0], next+1
	})
	dup := testing.AllocsPerRun(200, func() {
		if err := r.handleFrame(frames[0]); err != nil || !r.owed[1] {
			t.Fatalf("duplicate not owed an ack: %v", err)
		}
	})
	acked := testing.AllocsPerRun(200, func() {
		if err := r.handleFrame(frames[0]); err != nil {
			t.Fatal(err)
		}
		if err := r.flushPending(); err != nil || r.owed[1] {
			t.Fatalf("ack not flushed: %v", err)
		}
		if _, ok, _ := f.TryRecv(1, 0, tagRelAck); !ok {
			t.Fatal("no ack frame on the wire")
		}
	})
	if fresh != 1 || dup != 0 || acked != 1 || len(r.queue) != 0 || r.stats.DupDropped != 402 {
		t.Fatalf("a delivery allocates %v times, a duplicate %v, a duplicate and its ack %v (%d queued, %d dropped); want 1, 0, 1",
			fresh, dup, acked, len(r.queue), r.stats.DupDropped)
	}
}

// Serving switches the communicator's standing helper on and its stop
// switches it off: once the first call has started the helper, neither call
// allocates — no goroutine, context or channel per call — and the helper, while
// on, acknowledges and queues what a peer sends with the owner idle.
func TestServingAllocs(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, peer := NewReliableComm(f, 0, ReliableConfig{}), NewReliableComm(f, 1, ReliableConfig{AckTimeout: time.Hour})
	c.SetContext(ctx)
	stop := c.Serving()
	if err := peer.Send(0, 3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Flush(ctx); err != nil {
		t.Fatalf("the helper did not acknowledge: %v", err)
	}
	stop()
	if m, ok, err := c.TryRecv(1, 3); !ok || err != nil || string(m.Payload) != "x" {
		t.Fatalf("the helper did not queue the delivery: %q, %v, %v", m.Payload, ok, err)
	}
	if n := testing.AllocsPerRun(200, func() { c.Serving()() }); n != 0 {
		t.Fatalf("Serving and its stop allocate %v times", n)
	}
}
