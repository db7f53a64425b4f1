package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// The send window, on an injected clock. Unless a test says otherwise one
// goroutine drives both ranks and the clock, and a frame is "dropped" by
// taking it out of its receiver's mailbox before that rank pumps — so every
// step is deterministic, and a send that waited for an acknowledgement would
// hang on the frozen clock instead of passing late.

// pair is two reliable communicators over one fabric on a fake clock.
type pair struct {
	f    *transport.Fabric
	clk  *fakeClock
	a, b *Comm
}

func newPair(t *testing.T, cfg ReliableConfig) pair {
	clk := newFakeClock()
	f := transport.New(transport.Config{Ranks: 2, Clock: clk})
	t.Cleanup(f.Close)
	return pair{f: f, clk: clk, a: NewReliableComm(f, 0, cfg), b: NewReliableComm(f, 1, cfg)}
}

// ackDue is the latest a deadline armed with ack wait d can fall after its
// arming: d stretched by the whole backoffJitter.
func ackDue(d time.Duration) time.Duration {
	return d + time.Duration(float64(d)*backoffJitter)
}

// drop loses the oldest frame on wireTag that is waiting in rank's mailbox.
func (p pair) drop(t *testing.T, rank, wireTag int) {
	t.Helper()
	if _, ok, err := p.f.TryRecv(rank, transport.AnySource, wireTag); err != nil || !ok {
		t.Fatalf("no frame on tag %#x at rank %d to drop (err %v)", wireTag, rank, err)
	}
}

// pump runs one pump cycle on c; the tag matches nothing these tests send.
func pump(t *testing.T, c *Comm) {
	t.Helper()
	if _, ok, err := c.TryRecv(transport.AnySource, MaxUserTag); err != nil || ok {
		t.Fatalf("pump: ok=%v err=%v", ok, err)
	}
}

func wantNext(t *testing.T, c *Comm, src int, want string) {
	t.Helper()
	m, ok, err := c.TryRecv(src, 1)
	if err != nil || !ok || string(m.Payload) != want {
		t.Fatalf("next delivery = %q, ok=%v, err=%v; want %q", m.Payload, ok, err, want)
	}
}

// A dropped ack costs nothing: the sender's next send goes out at once, the
// receiver delivers it at once, and that frame's cumulative ack releases the
// one whose own ack was lost — no retransmission, then or at its deadline.
func TestWindowDroppedAckCostsNothing(t *testing.T) {
	p := newPair(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3})
	if err := p.a.Send(1, 1, []byte("m0")); err != nil {
		t.Fatal(err)
	}
	wantNext(t, p.b, 0, "m0")
	p.drop(t, 0, tagRelAck)
	if err := p.a.Send(1, 1, []byte("m1")); err != nil {
		t.Fatalf("send behind a lost ack: %v", err)
	}
	wantNext(t, p.b, 0, "m1")
	pump(t, p.a) // m1's ack covers m0
	if st := p.a.ReliableStats(); st.Retries != 0 || p.a.rel.inflight != 0 {
		t.Fatalf("after m1's ack: %+v, %d in flight, want no retries and an empty window", st, p.a.rel.inflight)
	}
	p.clk.Advance(time.Millisecond)
	pump(t, p.a)
	pump(t, p.b)
	if st := p.a.ReliableStats(); st.Retries != 0 {
		t.Fatalf("after m0's deadline: %+v, want no retries", st)
	}
	if st := p.b.ReliableStats(); st.Delivered != 2 || st.DupDropped != 0 {
		t.Fatalf("receiver: %+v, want 2 delivered and no duplicate", st)
	}
}

// Frame k dropped with the rest of the window in flight behind it: nothing is
// delivered past the gap, and the one ack that maps every later frame
// releases them and shows k lost, so k alone is resent at once — on a frozen
// clock — and the whole window delivers in order. k's deadline, re-armed by
// that resend, then finds it acknowledged: no second retransmission.
func TestWindowDroppedFrameRetransmitsItAlone(t *testing.T) {
	tr := trace.New()
	p := newPair(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3, Tracer: tr})
	for i := range sendWindow {
		if err := p.a.Send(1, 1, []byte(fmt.Sprint("m", i))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			p.drop(t, 1, tagRelData)
		}
	}
	if _, ok, _ := p.b.TryRecv(0, 1); ok {
		t.Fatal("delivery past a gap")
	}
	pump(t, p.a)
	if got := p.a.rel.inflight; got != 1 || tr.Count("net.fast-retry") != 1 {
		t.Fatalf("%d frames unacknowledged, %d resent at once; want the dropped one, resent", got, tr.Count("net.fast-retry"))
	}
	for i := range sendWindow {
		wantNext(t, p.b, 0, fmt.Sprint("m", i))
	}
	pump(t, p.a)
	p.clk.Advance(time.Hour)
	pump(t, p.a)
	if st := p.a.ReliableStats(); st.Retries != 1 || st.FramesSent != sendWindow+1 || p.a.rel.inflight != 0 || tr.Count("net.retry") != 0 {
		t.Fatalf("sender: %+v, %d in flight, %d timed retries; want exactly one retransmission, the fast one",
			st, p.a.rel.inflight, tr.Count("net.retry"))
	}
}

// A fast retransmission is made once per frame and spends no retry budget.
// The resent hole is dropped again: a later ack showing the same hole does
// not resend it, the deadline the resend re-armed does, and a frame allowed
// one timed retransmission is still not given up on.
func TestWindowFastRetransmitOncePerFrame(t *testing.T) {
	tr := trace.New()
	p := newPair(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 1, Tracer: tr})
	send := func(i int) {
		t.Helper()
		if err := p.a.Send(1, 1, []byte(fmt.Sprint("m", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 3 {
		send(i)
		if i == 0 {
			p.drop(t, 1, tagRelData)
		}
	}
	pump(t, p.b) // parks m1, m2; the ack maps them
	pump(t, p.a) // m0 resent at once
	p.drop(t, 1, tagRelData)
	send(3)
	pump(t, p.b) // parks m3; the ack still shows m0 missing
	pump(t, p.a)
	if n := tr.Count("net.fast-retry"); n != 1 || p.a.rel.inflight != 1 {
		t.Fatalf("%d fast retransmissions, %d in flight; want m0 resent once and alone unacknowledged", n, p.a.rel.inflight)
	}
	p.clk.Advance(ackDue(time.Millisecond))
	pump(t, p.a) // the deadline: m0 again, timed
	for i := range 4 {
		wantNext(t, p.b, 0, fmt.Sprint("m", i))
	}
	pump(t, p.a)
	if st := p.a.ReliableStats(); st.Retries != 2 || tr.Count("net.retry") != 1 || p.a.rel.inflight != 0 {
		t.Fatalf("sender: %+v, %d timed; want one fast and one timed retransmission, then an empty window", st, tr.Count("net.retry"))
	}
	if lost := p.a.TakeLost(); lost != nil {
		t.Fatalf("lost %v: the fast retransmission spent the retry budget", lost)
	}
}

// Acks that say nothing new leave nothing behind: ones older than an ack
// already applied (expect below the window's base) and ones naming frames
// never sent (expect past the next sequence number) release no slot and
// resend nothing, whatever their maps claim.
func TestWindowStaleAndFutureAcksIgnored(t *testing.T) {
	p := newPair(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3})
	for i := range 3 {
		if err := p.a.Send(1, 1, []byte(fmt.Sprint("m", i))); err != nil {
			t.Fatal(err)
		}
		wantNext(t, p.b, 0, fmt.Sprint("m", i))
	}
	pump(t, p.a)
	if err := p.a.Send(1, 1, []byte("m3")); err != nil {
		t.Fatal(err)
	}
	p.drop(t, 1, tagRelData) // m3 in flight, unacknowledged
	size := stateSize(p.a.rel)
	for _, ack := range [][]byte{
		encodeAck(1, 0xFE),  // stale; a map past a hole
		encodeAck(2, 1<<1),  // stale; its map names m3
		encodeAck(5, 0),     // past nextSeq
		encodeAck(9, 0xFE),  // past nextSeq, a full map
		encodeAck(1<<63, 0), // far past
	} {
		if err := p.f.SendShared(1, 0, tagRelAck, ack); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, p.a)
	r := p.a.rel
	if st := p.a.ReliableStats(); st.Retries != 0 || r.inflight != 1 || r.sendBase[1] != 3 || stateSize(r) != size {
		t.Fatalf("%+v, %d in flight from %d, state %d → %d words; want m3 alone in flight and nothing resent",
			st, r.inflight, r.sendBase[1], size, stateSize(r))
	}
}

// Under the fabric's Reorder fault a frame overtaken by a later one looks
// lost to the ack that maps the later one, and is resent at once — once at
// most, though a reordered stream repeats that ack and reorders acks too. The
// clock is frozen, so every retransmission is a fast one; payloads of
// distinct lengths tell the trace which frame each one resent.
func TestWindowReorderFastRetransmitsOncePerFrame(t *testing.T) {
	tr := trace.New()
	f := transport.New(transport.Config{Ranks: 2, Clock: newFakeClock(), Fault: &transport.FaultConfig{
		Seed:    5,
		Default: transport.FaultProbs{Reorder: 0.2},
	}})
	defer f.Close()
	cfg := ReliableConfig{AckTimeout: time.Millisecond, Retries: 3, Tracer: tr}
	a, b := NewReliableComm(f, 0, cfg), NewReliableComm(f, 1, cfg)
	const n = 200
	errc := make(chan error, 1)
	go func() {
		for i := range n {
			if err := a.Send(1, 1, make([]byte, i)); err != nil {
				errc <- err
				return
			}
		}
		errc <- finish(a)
	}()
	for i := range n {
		if m, err := b.Recv(0, 1); err != nil || len(m.Payload) != i {
			t.Fatalf("delivery %d: %d bytes, %v", i, len(m.Payload), err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}()
	attend(b, done)
	fast := tr.InstantValues("net.fast-retry")
	if len(fast) == 0 || f.Stats().Faults.Reordered == 0 {
		t.Fatalf("%d reordered, %d fast retransmissions: the seed no longer overtakes a frame", f.Stats().Faults.Reordered, len(fast))
	}
	seen := map[int64]bool{}
	for _, size := range fast {
		if seen[size] {
			t.Fatalf("the %d-byte frame was fast-retransmitted twice (%v)", size, fast)
		}
		seen[size] = true
	}
	if st := a.ReliableStats(); st.Retries != int64(len(fast)) {
		t.Fatalf("%+v: %d retransmissions on a frozen clock were not fast ones", st, st.Retries-int64(len(fast)))
	}
}

// Two ranks that each send three windows at the other before receiving
// anything: a send blocked on a full window keeps serving the peer's frames,
// so both drain. The clock is frozen — only arrivals move anything.
func TestWindowsFilledAtEachOtherBothDrain(t *testing.T) {
	p := newPair(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3})
	const n = 3 * sendWindow
	run := func(c *Comm, peer int) error {
		for i := range n {
			if err := c.Send(peer, 1, []byte{byte(i)}); err != nil {
				return fmt.Errorf("rank %d send %d: %w", c.Rank(), i, err)
			}
		}
		for i := range n {
			if m, err := c.Recv(peer, 1); err != nil || m.Payload[0] != byte(i) {
				return fmt.Errorf("rank %d recv %d: %v, %v", c.Rank(), i, m.Payload, err)
			}
		}
		return finish(c)
	}
	errc := make(chan error, 1)
	go func() { errc <- run(p.b, 0) }()
	if err := run(p.a, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}()
	attend(p.a, done)
	for _, c := range []*Comm{p.a, p.b} {
		if st := c.ReliableStats(); st.Retries != 0 || st.Delivered != n {
			t.Errorf("rank %d: %+v", c.Rank(), st)
		}
	}
}

// A silent peer is given up on after exactly Retries retransmissions, each
// due 1.6× the last wait after the one before (capped at MaxAckTimeout),
// stretched by its jitter, and the loss is reported once, by whichever of the
// next send, a receive from that peer, Flush or TakeLost the owner calls first.
func TestWindowSilentPeerLostOnSchedule(t *testing.T) {
	const retries = 4
	cfg := ReliableConfig{AckTimeout: time.Millisecond, MaxAckTimeout: 3 * time.Millisecond, Retries: retries}
	for name, report := range map[string]func(c *Comm) error{
		"send": func(c *Comm) error { return c.Send(1, 1, nil) },
		"recv": func(c *Comm) error { _, err := c.Recv(1, 1); return err },
		"recv from anyone": func(c *Comm) error {
			_, err := c.Recv(transport.AnySource, 1)
			return err
		},
		"flush": func(c *Comm) error {
			lost, err := c.Flush(context.Background())
			if err == nil && len(lost) == 1 {
				err = &RankLostError{Rank: lost[0], Attempts: retries + 1}
			}
			return err
		},
		"take": func(c *Comm) error {
			if lost := c.TakeLost(); len(lost) == 1 {
				return &RankLostError{Rank: lost[0], Attempts: retries + 1}
			}
			return nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			p := newPair(t, cfg)
			if err := p.a.Send(1, 1, []byte("anyone home?")); err != nil {
				t.Fatal(err)
			}
			wait := time.Millisecond
			for k := 0; k <= retries; k++ {
				left := p.a.rel.slot(1, 0).deadline.Sub(p.clk.Now())
				if left < wait || left >= ackDue(wait) {
					t.Fatalf("deadline %d due in %v, want [%v, %v)", k, left, wait, ackDue(wait))
				}
				p.clk.Advance(left - time.Nanosecond)
				pump(t, p.a)
				if got := p.a.ReliableStats().Retries; got != int64(k) {
					t.Fatalf("%d retransmissions a nanosecond before deadline %d", got, k)
				}
				p.clk.Advance(time.Nanosecond)
				pump(t, p.a)
				if got, want := p.a.ReliableStats().Retries, int64(min(k+1, retries)); got != want {
					t.Fatalf("%d retransmissions at deadline %d, want %d", got, k, want)
				}
				wait = min(time.Duration(float64(wait)*ackBackoff), cfg.MaxAckTimeout)
			}
			if p.a.rel.inflight != 0 {
				t.Fatal("a frame outlived its peer")
			}
			var rle *RankLostError
			if err := report(p.a); !errors.As(err, &rle) || rle.Rank != 1 || rle.Attempts != retries+1 {
				t.Fatalf("reported %v, want rank 1 lost after %d attempts", err, retries+1)
			}
			// Once: the peer may only have been slow, and what it is sent next
			// starts a budget of its own.
			if lost := p.a.TakeLost(); lost != nil {
				t.Fatalf("loss reported twice: %v", lost)
			}
			if err := p.a.Send(1, 1, []byte("still there?")); err != nil {
				t.Fatalf("send after the report: %v", err)
			}
		})
	}
}

// A rank whose last frame is dropped and whose main then returns: the Flush
// of its epilogue, on a clock that only moves when read, retransmits it and
// returns once it is acknowledged.
func TestFlushDeliversDroppedFinalFrame(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0), step: 100 * time.Microsecond}
	f := transport.New(transport.Config{Ranks: 2, Clock: clk})
	defer f.Close()
	cfg := ReliableConfig{AckTimeout: 5 * time.Millisecond, Retries: 3}
	a, b := NewReliableComm(f, 0, cfg), NewReliableComm(f, 1, cfg)
	if err := a.Send(1, 1, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := f.TryRecv(1, 0, tagRelData); err != nil || !ok {
		t.Fatalf("nothing to drop: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		m, err := b.Recv(0, 1)
		if err == nil && string(m.Payload) != "last words" {
			err = fmt.Errorf("received %q", m.Payload)
		}
		got <- err
	}()
	if lost, err := a.Flush(context.Background()); err != nil || lost != nil {
		t.Fatalf("flush = %v, %v", lost, err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if st := a.ReliableStats(); st.Retries != 1 {
		t.Fatalf("sender: %+v, want one retransmission", st)
	}
}

// stepClock moves only when read, by step a reading: blocking calls make
// progress on it without a second goroutine driving time.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// Satellite regression: acknowledgements of sequence numbers nothing waits
// for (duplicates, late ones) used to be remembered forever. Ten thousand of
// them leave the layer exactly as constructed.
func TestDuplicateAcksLeaveNoState(t *testing.T) {
	p := newPair(t, ReliableConfig{})
	size := stateSize(p.a.rel)
	if err := p.a.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	wantNext(t, p.b, 0, "x")
	pump(t, p.a)
	for i := range 10000 {
		if err := p.f.SendShared(1, 0, tagRelAck, encodeAck(uint64(i%3), uint8(i))); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			pump(t, p.a)
		}
	}
	if got := stateSize(p.a.rel); got != size || p.a.rel.inflight != 0 {
		t.Fatalf("state grew from %d to %d words (%d in flight)", size, got, p.a.rel.inflight)
	}
}

// encodeAck spells out an ack-only frame: one ack record and the CRC.
func encodeAck(expect uint64, held uint8) []byte {
	w := serial.NewWriter(ackFrameLen)
	appendAckSub(w, expect, held)
	w.FinishCRC()
	return w.Bytes()
}

// appendAckSub spells out one ack record: kind, expect, gap map.
func appendAckSub(w *serial.Writer, expect uint64, held uint8) {
	w.U8(subAck)
	w.U64(expect)
	w.U8(held)
}

// dataFrame spells out a data-only frame: one data record and the CRC.
func dataFrame(seq uint64, tag int, payload []byte) []byte {
	w := serial.NewWriter(len(payload) + 32)
	w.U8(subData)
	w.U64(seq)
	w.Int(tag)
	w.RawBytes(payload)
	w.FinishCRC()
	return w.Bytes()
}

// stateSize counts what the layer holds per peer: ring slots in use or not,
// and the capacity of every buffer that grows by appending.
func stateSize(r *reliable) (n int) {
	n = len(r.window) + len(r.ahead) + len(r.owed) + cap(r.queue)
	for dst := range r.beats {
		n += cap(r.beats[dst])
	}
	return n
}

// A frame at or beyond expect+sendWindow cannot come from a conforming peer:
// it is dropped without an acknowledgement and parks nothing.
func TestFrameBeyondWindowDropped(t *testing.T) {
	p := newPair(t, ReliableConfig{})
	for _, seq := range []uint64{sendWindow, sendWindow + 1, 1 << 40} {
		if err := p.f.SendShared(0, 1, tagRelData, dataFrame(seq, 1, []byte("rogue"))); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, p.b)
	st := p.b.ReliableStats()
	if st.CorruptDropped != 3 || st.AcksSent != 0 || st.Delivered != 0 {
		t.Fatalf("receiver: %+v, want three unacknowledged drops", st)
	}
	// The last conforming sequence number still parks, and is delivered in
	// its turn.
	for seq := uint64(sendWindow - 1); seq < sendWindow; seq-- {
		if err := p.f.SendShared(0, 1, tagRelData, dataFrame(seq, 1, []byte{byte(seq)})); err != nil {
			t.Fatal(err)
		}
	}
	for seq := range sendWindow {
		wantNext(t, p.b, 0, string([]byte{byte(seq)}))
	}
}

// FuzzReliableFrames feeds handleFrame arbitrary record lists under a valid
// CRC — the part of the wire a checksum does not defend. No
// input may panic, hang, allocate beyond its own length or grow per-peer
// state past the window.
func FuzzReliableFrames(f *testing.F) {
	seed := func(build func(w *serial.Writer)) {
		w := serial.NewWriter(64)
		build(w)
		f.Add(w.Bytes())
	}
	seed(func(w *serial.Writer) { appendAckSub(w, 0, 0) })
	seed(func(w *serial.Writer) { w.U8(subData); w.U64(3); w.Int(1); w.RawBytes([]byte("parked")) })
	seed(func(w *serial.Writer) {
		w.U8(subData)
		w.U64(0)
		w.Int(1)
		w.RawBytes([]byte("first"))
		appendAckSub(w, 1<<60, 0xFF)
		appendBeatSub(w, pendFrame{tag: 2})
	})
	seed(func(w *serial.Writer) { appendBeatSub(w, pendFrame{tag: 2, payload: []byte("beat")}) })
	seed(func(w *serial.Writer) { w.U8(subAck); w.U64(0) })
	f.Fuzz(func(t *testing.T, body []byte) {
		fab := transport.New(transport.Config{Ranks: 2})
		defer fab.Close()
		r := NewReliableComm(fab, 0, ReliableConfig{}).rel
		rings := len(r.window) + len(r.ahead)
		w := serial.NewWriter(len(body) + 4)
		for _, b := range body {
			w.U8(b)
		}
		w.FinishCRC()
		r.mu.Lock()
		defer r.mu.Unlock()
		for range 3 { // a duplicate must be as harmless as the original
			if err := r.handleFrame(transport.Message{Src: 1, Tag: tagRelData, Payload: w.Bytes()}); err != nil {
				t.Fatal(err)
			}
		}
		held, bytes := 0, 0
		for _, pf := range r.ahead {
			if pf.held {
				held++
				bytes += len(pf.payload)
			}
		}
		for _, m := range r.queue {
			bytes += len(m.Payload)
		}
		// A delivery, a parked frame and a pending ack each come from a
		// sub-record of 13 bytes or more, at most two from one, in each of
		// the three passes.
		records := len(r.queue) + held
		if r.owed[1] {
			records++
		}
		if held >= sendWindow || bytes > 3*len(body) || records > len(body) {
			t.Fatalf("%d-byte body left %d parked, %d records, %d payload bytes", len(body), held, records, bytes)
		}
		if len(r.window)+len(r.ahead) != rings || r.inflight != 0 {
			t.Fatalf("rings resized to %d, or an ack claimed a slot (%d in flight)", len(r.window)+len(r.ahead), r.inflight)
		}
	})
}

// lossyLink returns a pair whose link 0→1 has just repaired a loss: m0 is
// dropped, m1's ack shows the hole, m0 is resent at once, and both are
// delivered and acknowledged.
func lossyLink(t *testing.T, cfg ReliableConfig) pair {
	t.Helper()
	p := newPair(t, cfg)
	for i := range 2 {
		if err := p.a.Send(1, 1, []byte(fmt.Sprint("m", i))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			p.drop(t, 1, tagRelData)
		}
	}
	pump(t, p.b) // parks m1; the ack shows m0 missing
	pump(t, p.a) // m0 resent at once
	wantNext(t, p.b, 0, "m0")
	wantNext(t, p.b, 0, "m1")
	pump(t, p.a)
	if st := p.a.ReliableStats(); st.Retries != 1 || p.a.rel.inflight != 0 {
		t.Fatalf("setup: %+v, %d in flight; want m0's fast retransmission and an empty window", st, p.a.rel.inflight)
	}
	return p
}

// goIdle makes one Comm.Idle call on c that returns at once: the moment a
// rank going idle probes its tails.
func goIdle(c *Comm) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Idle(ctx, c.ep.Gen(), time.Time{})
}

// On a link that has lost a frame, a dropped tail — nothing sent behind it to
// show it lost — is resent once as its sender goes idle, and delivered on a
// frozen clock: no deadline. A second idle does not resend it again.
func TestReliableTailProbeRepairsDroppedTail(t *testing.T) {
	tr := trace.New()
	p := lossyLink(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3, Tracer: tr})
	if err := p.a.Send(1, 1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	p.drop(t, 1, tagRelData)
	goIdle(p.a)
	goIdle(p.a)
	if n := tr.Count("net.tlp"); n != 1 {
		t.Fatalf("%d tail probes after two idles, want 1", n)
	}
	wantNext(t, p.b, 0, "tail")
	pump(t, p.a)
	st := p.a.ReliableStats()
	if st.TailProbes != 1 || st.Retries != 1 || st.FramesSent != 5 || p.a.rel.inflight != 0 || tr.Count("net.retry") != 0 {
		t.Fatalf("sender: %+v, %d in flight, %d timed; want the tail probed once, repaired, no deadline spent",
			st, p.a.rel.inflight, tr.Count("net.retry"))
	}
}

// A probe that reaches its receiver in the same pump as the tail it copies is
// acknowledged apart from it: with one of the two acks dropped the tail is
// still released, on a frozen clock.
func TestReliableTailProbeAckedApart(t *testing.T) {
	p := lossyLink(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3})
	if err := p.a.Send(1, 1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	goIdle(p.a)
	wantNext(t, p.b, 0, "tail") // the tail and its probe, one pump
	p.drop(t, 0, tagRelAck)
	pump(t, p.a)
	if st := p.a.ReliableStats(); st.TailProbes != 1 || st.Retries != 1 || p.a.rel.inflight != 0 {
		t.Fatalf("sender: %+v, %d in flight; want the tail released by the probe's own ack", st, p.a.rel.inflight)
	}
}

// A link that never lost a frame is never probed: a sender that idles behind
// every message sends each exactly once.
func TestReliableTailProbeNeverOnLosslessLink(t *testing.T) {
	tr := trace.New()
	p := newPair(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3, Tracer: tr})
	const n = 3 * lossMemory
	for i := range n {
		if err := p.a.Send(1, 1, []byte(fmt.Sprint("m", i))); err != nil {
			t.Fatal(err)
		}
		goIdle(p.a)
		wantNext(t, p.b, 0, fmt.Sprint("m", i))
		pump(t, p.a)
	}
	if st := p.a.ReliableStats(); st.FramesSent != n || st.TailProbes != 0 || st.Retries != 0 || tr.Count("net.tlp") != 0 {
		t.Fatalf("sender: %+v; want %d frames, no probe and no retransmission", st, n)
	}
}

// A probe spends no retry budget and leaves the frame's deadline where it
// was: a dropped probe is resent at that deadline, and the frame is given up
// on after Retries timed retransmissions, the probe not among its attempts.
func TestReliableTailProbeOutsideRetryBudget(t *testing.T) {
	tr := trace.New()
	p := lossyLink(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 1, Tracer: tr})
	if err := p.a.Send(1, 1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	p.drop(t, 1, tagRelData)
	due := p.a.rel.slot(1, 2).deadline
	goIdle(p.a)
	p.drop(t, 1, tagRelData) // the probe
	if st := p.a.ReliableStats(); st.TailProbes != 1 || st.Retries != 1 || p.a.rel.slot(1, 2).deadline != due {
		t.Fatalf("after the probe: %+v, deadline moved by %v; want one probe, no retry spent", st, p.a.rel.slot(1, 2).deadline.Sub(due))
	}
	p.clk.Advance(due.Sub(p.clk.Now()))
	pump(t, p.a) // the deadline: the tail again, timed
	if n := tr.Count("net.retry"); n != 1 {
		t.Fatalf("%d timed retransmissions at the tail's deadline, want 1", n)
	}
	p.drop(t, 1, tagRelData)
	p.clk.Advance(time.Hour)
	pump(t, p.a)
	var rle *RankLostError
	if err := p.a.Send(1, 1, nil); !errors.As(err, &rle) || rle.Attempts != 2 {
		t.Fatalf("reported %v, want rank 1 lost after 2 attempts: the original and one timed retransmission", err)
	}
	if st := p.a.ReliableStats(); st.TailProbes != 1 || st.Retries != 2 {
		t.Fatalf("sender: %+v; want one probe beside one fast and one timed retransmission", st)
	}
}

// A tail that a repair has just resent is not probed as well: the probe would
// only repeat that copy at the same instant.
func TestReliableTailProbeSkipsResentTail(t *testing.T) {
	tr := trace.New()
	p := lossyLink(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3, Tracer: tr})
	if err := p.a.Send(1, 1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	p.drop(t, 1, tagRelData)
	p.clk.Advance(ackDue(time.Millisecond))
	pump(t, p.a) // the deadline: the tail again, timed
	goIdle(p.a)
	if st := p.a.ReliableStats(); st.TailProbes != 0 || tr.Count("net.retry") != 1 {
		t.Fatalf("sender: %+v, %d timed; want the tail resent by its deadline and not probed", st, tr.Count("net.retry"))
	}
	wantNext(t, p.b, 0, "tail")
}

// The gate clears after lossMemory frames acknowledged without a loss repair
// since the last one — the first is lossyLink's m1, whose ack showed m0 lost
// — and a probe is no repair: the frame that completes the run is still
// probed, the dropped tail after it is not.
func TestReliableTailProbeGateClears(t *testing.T) {
	tr := trace.New()
	p := lossyLink(t, ReliableConfig{AckTimeout: time.Millisecond, Retries: 3, Tracer: tr})
	for i := range lossMemory - 1 {
		if err := p.a.Send(1, 1, []byte(fmt.Sprint("c", i))); err != nil {
			t.Fatal(err)
		}
		if i == lossMemory-2 {
			goIdle(p.a)
		}
		wantNext(t, p.b, 0, fmt.Sprint("c", i))
		pump(t, p.a)
	}
	if n := tr.Count("net.tlp"); n != 1 {
		t.Fatalf("%d probes over a loss-free run, want 1: its last frame, the gate still open", n)
	}
	if err := p.a.Send(1, 1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	p.drop(t, 1, tagRelData)
	goIdle(p.a)
	if n := tr.Count("net.tlp"); n != 1 {
		t.Fatalf("a dropped tail was probed after %d loss-free frames", lossMemory)
	}
}

// Probes race nothing: over a lossy fabric on the system clock, with each
// rank's Serving helper pumping and idling beside its owner under the one
// mutex, a ping-pong delivers every message once, in order, and the tails
// probed are counted apart from the retransmissions.
func TestReliableTailProbeWithServingHelper(t *testing.T) {
	f := lossyFabric(2, 51)
	defer f.Close()
	a, b := NewReliableComm(f, 0, fastReliable()), NewReliableComm(f, 1, fastReliable())
	defer a.Serving()()
	defer b.Serving()()
	const n = 100
	errc := make(chan error, 1)
	go func() {
		for i := range n {
			m, err := b.Recv(0, 1)
			if err == nil && string(m.Payload) != fmt.Sprint("m", i) {
				err = fmt.Errorf("delivery %d = %q", i, m.Payload)
			}
			if err == nil {
				err = b.Send(0, 1, m.Payload)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- finish(b)
	}()
	for i := range n {
		if err := a.Send(1, 1, []byte(fmt.Sprint("m", i))); err != nil {
			t.Fatal(err)
		}
		if m, err := a.Recv(1, 1); err != nil || string(m.Payload) != fmt.Sprint("m", i) {
			t.Fatalf("echo %d = %q, %v", i, m.Payload, err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}()
	attend(a, done)
	st := a.ReliableStats()
	if st.TailProbes == 0 || st.Delivered != n {
		t.Fatalf("sender: %+v; want %d echoes and tails probed", st, n)
	}
}
