package mpi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"triolet/internal/transport"
)

// drawJitters pulls n jittered timeouts from one comm's reliable layer.
func drawJitters(c *Comm, d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = c.rel.jitter(d)
	}
	return out
}

// The jitter stream is seeded: the same (seed, rank) replays the same
// sequence, while ranks sharing a config — the SPMD default — draw divergent
// sequences, so blocked senders do not retransmit in lockstep.
func TestBackoffJitterSeededAndRankDivergent(t *testing.T) {
	const d = 10 * time.Millisecond
	build := func() []*Comm {
		fab := transport.New(transport.Config{Ranks: 4})
		t.Cleanup(func() { fab.Close() })
		comms := make([]*Comm, 4)
		for r := range comms {
			comms[r] = NewReliableComm(fab, r, ReliableConfig{JitterSeed: 42})
		}
		return comms
	}

	first := build()
	second := build()
	seqs := make([][]time.Duration, len(first))
	for r := range first {
		seqs[r] = drawJitters(first[r], d, 16)
		replay := drawJitters(second[r], d, 16)
		for i := range seqs[r] {
			if seqs[r][i] != replay[i] {
				t.Fatalf("rank %d draw %d not reproducible: %v vs %v", r, i, seqs[r][i], replay[i])
			}
		}
	}
	// Every pair of ranks must diverge somewhere in the first 16 draws.
	for a := 0; a < len(seqs); a++ {
		for b := a + 1; b < len(seqs); b++ {
			same := true
			for i := range seqs[a] {
				if seqs[a][i] != seqs[b][i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("ranks %d and %d drew identical jitter sequences — retransmits would synchronize", a, b)
			}
		}
	}
}

// Jitter is strictly additive: every draw lands in [d, d*(1+BackoffJitter)).
// The lower bound is what preserves the RTT floor — a draw below d would let
// simulated latency read as loss again (the regression pinned by
// TestHighLatencyLosslessWireDoesNotRetransmit).
func TestBackoffJitterNeverUndercutsTimeout(t *testing.T) {
	fab := transport.New(transport.Config{Ranks: 1})
	defer fab.Close()
	c := NewReliableComm(fab, 0, ReliableConfig{BackoffJitter: 0.25, JitterSeed: 7})
	const d = 8 * time.Millisecond
	upper := d + time.Duration(float64(d)*0.25)
	for i, got := range drawJitters(c, d, 200) {
		if got < d || got >= upper {
			t.Fatalf("draw %d = %v outside [%v, %v)", i, got, d, upper)
		}
	}
}

// A negative BackoffJitter disables the spread entirely; deadlines become
// exactly the backed-off timeout again.
func TestBackoffJitterDisabled(t *testing.T) {
	fab := transport.New(transport.Config{Ranks: 1})
	defer fab.Close()
	c := NewReliableComm(fab, 0, ReliableConfig{BackoffJitter: -1})
	const d = 3 * time.Millisecond
	for i, got := range drawJitters(c, d, 50) {
		if got != d {
			t.Fatalf("draw %d = %v with jitter disabled, want exactly %v", i, got, d)
		}
	}
}

// Chaos pin for the jittered backoff: on a fabric dropping, duplicating,
// and corrupting 10% of frames, jittered retransmits still converge to
// complete in-order delivery, and the loss actually exercises the backoff
// path (retries observed on both sides of the exchange).
func TestBackoffJitterChaosConvergence(t *testing.T) {
	f := lossyFabric(2, 20260808)
	defer f.Close()
	cfg := fastReliable()
	cfg.JitterSeed = 99
	a := NewReliableComm(f, 0, cfg)
	b := NewReliableComm(f, 1, cfg)

	const n = 80
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			m, err := b.Recv(0, 5)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if err := b.Send(0, 5, m.Payload); err != nil {
				t.Errorf("echo %d: %v", i, err)
				return
			}
		}
		// The tail: the last echo is buffered, not delivered, and it is
		// retransmitted — like a duplicate from the peer is re-acked — only
		// while this side still pumps the protocol. Keep pumping until the
		// sender confirms every exchange completed (real farm workers are
		// long-lived, so only a test tail can go quiet like that).
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := b.TryRecv(0, 5); err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("jittered-%d", i)
		if err := a.Send(1, 5, []byte(want)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		m, err := a.Recv(1, 5)
		if err != nil {
			t.Fatalf("pong %d: %v", i, err)
		}
		if string(m.Payload) != want {
			t.Fatalf("echo %d = %q, want %q", i, m.Payload, want)
		}
	}
	close(done)
	wg.Wait()
	if s := a.ReliableStats(); s.Retries == 0 {
		t.Fatalf("lossy exchange saw no retries — chaos profile did not exercise the jittered backoff: %+v", s)
	}
}
