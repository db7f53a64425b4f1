package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Cancellation contract for the fabric: a receive blocked on an empty
// mailbox returns ctx.Err() promptly (the 100ms bound below holds under
// -race), a message already delivered wins over a cancelled context, and
// no waiter goroutine is left behind.

const cancelBound = 100 * time.Millisecond

func TestRecvCtxUnblocksOnCancel(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.RecvCtx(ctx, 0, 1, 7)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the receiver block
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RecvCtx after cancel = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > cancelBound {
			t.Fatalf("RecvCtx took %v to observe cancel, want < %v", d, cancelBound)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvCtx did not unblock on cancel")
	}
}

// A receive under a cancellable context registers that context with the
// mailbox once, as Wait does, not once per call: a matched receive
// allocates nothing, and neither does one that blocks until an arrival.
func TestRecvCtxZeroAllocs(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	payload := []byte{1}

	if n := testing.AllocsPerRun(200, func() {
		f.SendShared(1, 0, 7, payload)
		if _, err := f.RecvCtx(ctx, 0, 1, 7); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("matched RecvCtx allocates %v per call, want 0", n)
	}

	kick := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-kick:
				time.Sleep(200 * time.Microsecond) // let the receiver block
				f.SendShared(1, 0, 7, payload)
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)
	if n := testing.AllocsPerRun(50, func() {
		kick <- struct{}{}
		if _, err := f.RecvCtx(ctx, 0, 1, 7); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("RecvCtx woken by an arrival allocates %v per call, want 0", n)
	}
}

func TestRecvCtxDeadline(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.RecvCtx(ctx, 0, 1, 7)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RecvCtx = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > cancelBound {
		t.Fatalf("RecvCtx overshot its deadline by %v", d-10*time.Millisecond)
	}
}

// A message that has already arrived must be returned even if the context
// is cancelled: delivery wins, so cancel/receive races never drop data.
func TestRecvCtxDeliveredMessageWinsOverCancel(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	if err := f.Send(1, 0, 7, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled
	m, err := f.RecvCtx(ctx, 0, 1, 7)
	if err != nil {
		t.Fatalf("RecvCtx with queued message = %v, want the message", err)
	}
	if string(m.Payload) != "kept" {
		t.Fatalf("payload = %q", m.Payload)
	}
	// With the queue drained, the cancelled context now surfaces.
	if _, err := f.RecvCtx(ctx, 0, 1, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecvCtx on empty queue = %v, want context.Canceled", err)
	}
}

func TestSendCtxCancelled(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.SendCtx(ctx, 0, 1, 7, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("SendCtx = %v, want context.Canceled", err)
	}
	// The cancelled send must not have been delivered.
	if _, ok, _ := f.TryRecv(1, 0, 7); ok {
		t.Fatal("cancelled SendCtx delivered its message")
	}
}

func TestRecvCtxNilAndBackgroundBehaveLikeRecv(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	if err := f.Send(1, 0, 3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if m, err := f.RecvCtx(nil, 0, 1, 3); err != nil || string(m.Payload) != "a" {
		t.Fatalf("RecvCtx(nil) = %v, %v", m, err)
	}
	if err := f.Send(1, 0, 3, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if m, err := f.RecvCtx(context.Background(), 0, 1, 3); err != nil || string(m.Payload) != "b" {
		t.Fatalf("RecvCtx(Background) = %v, %v", m, err)
	}
}

// Fabric closure must still unblock a context-carrying receive.
func TestRecvCtxUnblocksOnClose(t *testing.T) {
	f := New(Config{Ranks: 2})
	done := make(chan error, 1)
	go func() {
		_, err := f.RecvCtx(context.Background(), 0, 1, 7)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	f.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("RecvCtx after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvCtx did not unblock on close")
	}
}

// Many concurrent receivers cancelled together must all return promptly —
// the AfterFunc broadcast wakes every waiter, not just one.
func TestRecvCtxManyWaitersAllCancel(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 16
	done := make(chan error, n)
	for i := range n {
		go func() {
			_, err := f.RecvCtx(ctx, 0, 1, i)
			done <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	cancel()
	deadline := time.After(2 * time.Second)
	for range n {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("waiter returned %v, want context.Canceled", err)
			}
		case <-deadline:
			t.Fatal("a waiter never unblocked after cancel")
		}
	}
}
