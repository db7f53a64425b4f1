package mpi

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"triolet/internal/transport"
)

// Cancellation contract for the communicator: RecvCtx, SendCtx (in both
// direct and reliable mode), and the collectives (through SetContext) all
// return ctx.Err() within 100ms of cancellation — the bound holds under
// -race — and leave no goroutine wedged on the fabric.

const cancelBound = 100 * time.Millisecond

func assertCancelled(t *testing.T, what string, start time.Time, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s after cancel = %v, want context.Canceled", what, err)
	}
	if d := time.Since(start); d > cancelBound {
		t.Fatalf("%s took %v to observe cancel, want < %v", what, d, cancelBound)
	}
}

func TestRecvCtxCancelDirect(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	c := NewComm(f, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RecvCtx(ctx, 1, 7)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		assertCancelled(t, "RecvCtx", start, err)
	case <-time.After(2 * time.Second):
		t.Fatal("direct RecvCtx did not unblock on cancel")
	}
}

func TestRecvCtxCancelReliable(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	c := NewReliableComm(f, 0, ReliableConfig{
		AckTimeout: time.Millisecond,
		Retries:    1 << 20, // deep enough that retry exhaustion never races the cancel
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RecvCtx(ctx, 1, 7)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		assertCancelled(t, "reliable RecvCtx", start, err)
	case <-time.After(2 * time.Second):
		t.Fatal("reliable RecvCtx did not unblock on cancel")
	}
}

// Frames keep being retried into a silent peer until cancelled, and the two
// calls that can block behind them — a send on a full window, a Flush — must
// observe the context mid-ladder, not only between retransmissions.
func TestSendCtxCancelReliableSilentPeer(t *testing.T) {
	for name, block := range map[string]func(ctx context.Context, c *Comm) error{
		"send on a full window": func(ctx context.Context, c *Comm) error {
			return c.SendCtx(ctx, 1, 7, []byte("one too many"))
		},
		"flush": func(ctx context.Context, c *Comm) error {
			_, err := c.Flush(ctx)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := transport.New(transport.Config{Ranks: 2})
			defer f.Close()
			c := NewReliableComm(f, 0, ReliableConfig{
				AckTimeout:    time.Millisecond,
				MaxAckTimeout: 2 * time.Millisecond,
				Retries:       1 << 20,
			})
			for range sendWindow {
				if err := c.Send(1, 7, []byte("into the void")); err != nil {
					t.Fatalf("buffered send: %v", err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- block(ctx, c) }()
			// Let the ladder start: wait, bounded, for the first retransmission.
			for end := time.Now().Add(2 * time.Second); c.ReliableStats().Retries == 0 && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			if c.ReliableStats().Retries == 0 {
				t.Error("the blocked call is not retransmitting")
			}
			start := time.Now()
			cancel()
			select {
			case err := <-done:
				assertCancelled(t, "reliable "+name, start, err)
			case <-time.After(2 * time.Second):
				t.Fatal("did not unblock on cancel")
			}
		})
	}
}

func TestSendCtxCancelledDirect(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	c := NewComm(f, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.SendCtx(ctx, 1, 7, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("SendCtx = %v, want context.Canceled", err)
	}
}

// SetContext governs the collectives: cancelling the comm's context must
// unwind every rank out of a wedged Barrier (here: all ranks but one).
func TestCollectivesUnwindOnCancel(t *testing.T) {
	const ranks = 4
	f := transport.New(transport.Config{Ranks: ranks})
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range ranks {
		if r == 1 {
			continue // rank 1 never joins: the barrier cannot complete
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewComm(f, r)
			c.SetContext(ctx)
			errs[r] = c.Barrier()
		}()
	}
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("barrier ranks did not unwind on cancel")
	}
	if d := time.Since(start); d > cancelBound {
		t.Fatalf("unwind took %v, want < %v", d, cancelBound)
	}
	for r, err := range errs {
		if r == 1 {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rank %d barrier error = %v, want context.Canceled", r, err)
		}
	}
}

// A comm whose context is already cancelled fails fast on every public
// operation instead of touching the fabric.
func TestPreCancelledContextFailsFast(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	c := NewComm(f, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetContext(ctx)
	if err := c.Send(1, 7, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Send = %v", err)
	}
	if _, err := c.Recv(1, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("Recv = %v", err)
	}
	if _, err := c.Bcast(0, []byte("x")); err == nil {
		t.Fatal("Bcast on cancelled comm succeeded")
	}
}

// Delivered data still wins over cancellation at the comm layer too.
func TestRecvCtxQueuedMessageBeatsCancel(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	sender := NewComm(f, 1)
	recver := NewComm(f, 0)
	if err := sender.Send(0, 7, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := recver.RecvCtx(ctx, 1, 7)
	if err != nil || string(m.Payload) != "kept" {
		t.Fatalf("RecvCtx = %v, %v; want the queued message", m, err)
	}
}
