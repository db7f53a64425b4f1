package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"triolet/internal/transport"
)

// lossyFabric builds a fabric that drops, duplicates, and corrupts with the
// given seed — the standard chaos profile for these tests.
func lossyFabric(ranks int, seed int64) *transport.Fabric {
	return transport.New(transport.Config{
		Ranks: ranks,
		Fault: &transport.FaultConfig{
			Seed: seed,
			Default: transport.FaultProbs{
				Drop:      0.10,
				Duplicate: 0.10,
				Corrupt:   0.10,
			},
		},
	})
}

// fastReliable keeps retry timeouts short so lossy tests converge quickly.
func fastReliable() ReliableConfig {
	return ReliableConfig{
		AckTimeout:    500 * time.Microsecond,
		Retries:       60,
		MaxAckTimeout: 20 * time.Millisecond,
	}
}

// finish ends a sending rank of these tests. Reliable sends are buffered, so
// before a rank stops calling into its communicator it sees its frames
// acknowledged — or their peer given up on, which is an error here.
func finish(c *Comm) error {
	lost, err := c.Flush(context.Background())
	if err == nil && len(lost) > 0 {
		err = fmt.Errorf("rank %d gave up on %v", c.Rank(), lost)
	}
	return err
}

// attend keeps c acknowledging until done closes: what a rank that has
// received all it wants owes a peer whose last acks may have been dropped
// (cluster.RunCtx's teardown linger, and the same receive nothing satisfies).
func attend(c *Comm, done <-chan struct{}) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-done
		cancel()
	}()
	c.RecvCtx(ctx, c.Rank(), MaxUserTag) //nolint:errcheck // ends by cancellation
}

func TestReliableDeliveryOverLossyFabric(t *testing.T) {
	f := lossyFabric(2, 123)
	defer f.Close()
	sender := NewReliableComm(f, 0, fastReliable())
	recver := NewReliableComm(f, 1, fastReliable())

	const n = 100
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < n; i++ {
			if err := sender.Send(1, 7, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		if err := finish(sender); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < n; i++ {
		m, err := recver.Recv(0, 7)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("msg-%d", i); string(m.Payload) != want {
			t.Fatalf("recv %d = %q, want %q (order broken)", i, m.Payload, want)
		}
	}
	attend(recver, sent)

	// The fabric misbehaved and the protocol papered over it: retries
	// happened, and every one of the n messages still landed exactly once
	// in order.
	faults := f.Stats().Faults
	if faults.Dropped == 0 && faults.Corrupted == 0 && faults.Duplicated == 0 {
		t.Fatalf("fault injection never fired: %+v", faults)
	}
	ss := sender.ReliableStats()
	if ss.Retries == 0 {
		t.Fatalf("no retries despite %d drops: %+v", faults.Dropped, ss)
	}
	if rs := recver.ReliableStats(); rs.Delivered != n {
		t.Fatalf("receiver delivered %d, want %d", rs.Delivered, n)
	}
}

func TestReliableCollectivesUnderFaults(t *testing.T) {
	const ranks = 4
	f := lossyFabric(ranks, 99)
	defer f.Close()

	results := make([]string, ranks)
	errs := make([]error, ranks)
	var wg, mains sync.WaitGroup
	mains.Add(ranks)
	lastOut := make(chan struct{})
	go func() {
		mains.Wait()
		close(lastOut)
	}()
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewReliableComm(f, r, fastReliable())
			defer func() {
				if errs[r] == nil {
					errs[r] = finish(c)
				}
				mains.Done()
				attend(c, lastOut)
			}()
			// Bcast a payload down, gather rank signatures back up, then
			// reduce a sum — every collective shape over a lossy wire.
			got, err := c.Bcast(0, []byte("seed-payload"))
			if err != nil {
				errs[r] = fmt.Errorf("bcast: %w", err)
				return
			}
			if string(got) != "seed-payload" {
				errs[r] = fmt.Errorf("bcast payload = %q", got)
				return
			}
			all, err := c.Gather(0, []byte{byte('A' + r)})
			if err != nil {
				errs[r] = fmt.Errorf("gather: %w", err)
				return
			}
			sum, root, err := ReduceT(c, intC, r, func(a, b int) int { return a + b })
			if err != nil {
				errs[r] = fmt.Errorf("reduce: %w", err)
				return
			}
			if r == 0 {
				sig := ""
				for _, p := range all {
					sig += string(p)
				}
				if !root {
					errs[r] = errors.New("rank 0 not reduce root")
					return
				}
				results[0] = fmt.Sprintf("%s/%d", sig, sum)
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if want := "ABCD/6"; results[0] != want {
		t.Fatalf("collective result = %q, want %q", results[0], want)
	}
}

func TestReliableSendRankLostOnCrash(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2, Fault: &transport.FaultConfig{Seed: 1}})
	defer f.Close()
	c := NewReliableComm(f, 0, fastReliable())
	f.CrashRank(1)

	start := time.Now()
	err := c.Send(1, 3, []byte("to the dead"))
	if !errors.Is(err, ErrRankLost) {
		t.Fatalf("send to crashed rank err = %v, want ErrRankLost", err)
	}
	var rle *RankLostError
	if !errors.As(err, &rle) || rle.Rank != 1 {
		t.Fatalf("err = %v, want RankLostError{Rank: 1}", err)
	}
	// The fabric already knew, so the failure must be fast, not a full
	// retry ladder.
	if took := time.Since(start); took > time.Second {
		t.Fatalf("fast-fail took %v", took)
	}
}

func TestReliableSendRankLostOnSilence(t *testing.T) {
	// Rank 1 exists but never services its communicator: no acks ever come
	// back, so the frame must exhaust its retries and the rank be declared
	// lost (this is the no-failure-detector path — pure timeout). The send
	// is buffered; Flush is where the sender waits and learns.
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	c := NewReliableComm(f, 0, ReliableConfig{
		AckTimeout: time.Millisecond,
		Retries:    3,
	})
	if err := c.Send(1, 3, []byte("anyone home?")); err != nil {
		t.Fatalf("buffered send: %v", err)
	}
	lost, err := c.Flush(context.Background())
	if err != nil || len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("flush toward a silent rank = %v, %v, want [1]", lost, err)
	}
	if st := c.ReliableStats(); st.Retries != 3 {
		t.Fatalf("retries = %d, want 3", st.Retries)
	}
}

func TestReliableRecvRankLostOnCrash(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2, Fault: &transport.FaultConfig{Seed: 1}})
	defer f.Close()
	c := NewReliableComm(f, 0, fastReliable())
	f.CrashRank(1)
	if _, err := c.Recv(1, 5); !errors.Is(err, ErrRankLost) {
		t.Fatalf("recv from crashed rank err = %v, want ErrRankLost", err)
	}
}

// A peer that dies with its last message still in our mailbox: the fabric
// refuses the acknowledgement (there is no injector here to swallow it), and
// that refusal is the peer's loss, not a failure of this rank — the message
// is delivered.
func TestReliableAckToDeadPeerIsNotAnError(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	a, b := NewReliableComm(f, 0, fastReliable()), NewReliableComm(f, 1, fastReliable())
	if err := b.Send(0, 4, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	f.CrashRank(1)
	if m, ok, err := a.TryRecv(1, 4); err != nil || !ok || string(m.Payload) != "last words" {
		t.Fatalf("recv = %q, %v, %v", m.Payload, ok, err)
	}
}

func TestReliableSelfSend(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 1})
	defer f.Close()
	c := NewReliableComm(f, 0, fastReliable())
	if err := c.Send(0, 2, []byte("note to self")); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv(0, 2)
	if err != nil || string(m.Payload) != "note to self" {
		t.Fatalf("self recv = %v, %v", m, err)
	}
}

func TestReliableDuplicatesSuppressed(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2, Fault: &transport.FaultConfig{
		Seed:    5,
		Default: transport.FaultProbs{Duplicate: 1}, // every frame doubled
	}})
	defer f.Close()
	sender := NewReliableComm(f, 0, fastReliable())
	recver := NewReliableComm(f, 1, fastReliable())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := sender.Send(1, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		m, err := recver.Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("recv %d = %d", i, m.Payload[0])
		}
	}
	wg.Wait()
	// Exactly 20 user messages despite every wire frame arriving twice.
	if m, ok, _ := recver.TryRecv(0, 1); ok {
		t.Fatalf("extra delivery %v leaked through dedup", m)
	}
	if st := recver.ReliableStats(); st.DupDropped == 0 {
		t.Fatalf("no duplicates recorded: %+v", st)
	}
}
