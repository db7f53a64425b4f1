package mpi

import (
	"strings"
	"sync"
	"testing"
	"time"

	"triolet/internal/transport"
)

// fakeClock is a manually-advanced transport.Clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Regression: with a simulated wire delay far above the default 5ms ack
// timeout, every first attempt used to time out before its ack could
// possibly return, retransmitting the whole stream. The deadline is now
// floored above the simulated round trip, so a slow lossless wire yields
// zero retries — latency reads as latency, not loss.
func TestHighLatencyLosslessWireDoesNotRetransmit(t *testing.T) {
	f := transport.New(transport.Config{
		Ranks: 2,
		Delay: &transport.DelayConfig{Latency: 20 * time.Millisecond},
	})
	defer f.Close()
	a := NewReliableComm(f, 0, ReliableConfig{}) // default 5ms AckTimeout
	b := NewReliableComm(f, 1, ReliableConfig{})

	const n = 3
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			m, err := b.Recv(0, 9)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if err := b.Send(0, 9, m.Payload); err != nil {
				t.Errorf("reply %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(1, 9, []byte("ping")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := a.Recv(1, 9); err != nil {
			t.Fatalf("pong %d: %v", i, err)
		}
	}
	wg.Wait()

	for name, c := range map[string]*Comm{"a": a, "b": b} {
		if s := c.ReliableStats(); s.Retries != 0 {
			t.Fatalf("%s retransmitted %d times on a lossless delayed wire: %+v", name, s.Retries, s)
		}
	}
}

// With a frozen injected clock, an absurdly small ack timeout never fires
// even when the receiver acks slowly in real time — proof that the send
// deadline is computed and checked against the fabric clock, not the wall
// clock.
func TestSendDeadlineFollowsInjectedClock(t *testing.T) {
	clk := newFakeClock()
	f := transport.New(transport.Config{Ranks: 2, Clock: clk})
	defer f.Close()
	cfg := ReliableConfig{AckTimeout: time.Nanosecond, Retries: 2}
	a := NewReliableComm(f, 0, cfg)
	b := NewReliableComm(f, 1, cfg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // several million ack timeouts of real time
		if _, err := b.Recv(0, 3); err != nil {
			t.Errorf("recv: %v", err)
		}
	}()
	if err := a.Send(1, 3, []byte("x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	wg.Wait()
	if s := a.ReliableStats(); s.Retries != 0 {
		t.Fatalf("deadline fired on a frozen clock: %+v", s)
	}
}

// A receiver that writes a delivered payload writes its sender's retransmit
// copy of the frame. The sender's next retransmission finds the frame's CRC
// broken and fails, naming the peer and the frame, instead of resending a
// frame its receiver can only drop as corrupt until the peer is given up on.
func TestResendRefusesFrameChangedAfterSend(t *testing.T) {
	clk := newFakeClock()
	f := transport.New(transport.Config{Ranks: 2, Clock: clk})
	defer f.Close()
	a, b := NewReliableComm(f, 0, ReliableConfig{}), NewReliableComm(f, 1, ReliableConfig{})
	if err := a.Send(1, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Payload[0] ^= 1
	if _, ok, _ := f.TryRecv(0, 1, tagRelAck); !ok { // the ack is lost
		t.Fatal("no ack on the wire")
	}
	before := a.ReliableStats()
	clk.Advance(time.Second)
	_, _, err = a.TryRecv(1, 3)
	if err == nil || !strings.Contains(err.Error(), "frame 0 to rank 1 changed after send") {
		t.Fatalf("resend of a written frame: %v", err)
	}
	if after := a.ReliableStats(); after.Retries != before.Retries || after.FramesSent != before.FramesSent {
		t.Fatalf("the written frame went out again: %+v, then %+v", before, after)
	}
}
