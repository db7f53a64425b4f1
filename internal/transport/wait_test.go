package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Contract of the wait primitive: Wait reports why it returned, a snapshot
// taken before a delivery or Wake makes Wait return at once (no lost
// wake-up), cancellation and crashes unblock within the fabric's 100ms
// bound, and a steady-state wait allocates nothing.

// blockThen starts Wait on rank 0 from a fresh snapshot, lets it block,
// runs act, and returns the reason with the time from act to return.
func blockThen(t *testing.T, f *Fabric, ctx context.Context, deadline time.Time, act func()) (WaitReason, time.Duration) {
	t.Helper()
	ep := f.Endpoint(0)
	gen := ep.Gen()
	got := make(chan WaitReason, 1)
	go func() { got <- ep.Wait(ctx, gen, deadline) }()
	time.Sleep(5 * time.Millisecond) // let the waiter block
	start := time.Now()
	act()
	select {
	case why := <-got:
		return why, time.Since(start)
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return")
		return 0, 0
	}
}

func TestWaitReportsWhyItReturned(t *testing.T) {
	bg := context.Background()
	for _, c := range []struct {
		name string
		want WaitReason
		run  func(t *testing.T, f *Fabric) (WaitReason, time.Duration)
	}{
		{"arrival", WaitArrival, func(t *testing.T, f *Fabric) (WaitReason, time.Duration) {
			return blockThen(t, f, bg, time.Time{}, func() { f.Send(1, 0, 7, nil) })
		}},
		{"wake", WaitWake, func(t *testing.T, f *Fabric) (WaitReason, time.Duration) {
			return blockThen(t, f, bg, time.Time{}, func() { f.Endpoint(0).Wake() })
		}},
		{"deadline", WaitDeadline, func(t *testing.T, f *Fabric) (WaitReason, time.Duration) {
			return blockThen(t, f, bg, time.Now().Add(15*time.Millisecond), func() {})
		}},
		{"ctx", WaitCtx, func(t *testing.T, f *Fabric) (WaitReason, time.Duration) {
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			return blockThen(t, f, ctx, time.Time{}, cancel)
		}},
		{"closed", WaitClosed, func(t *testing.T, f *Fabric) (WaitReason, time.Duration) {
			return blockThen(t, f, bg, time.Time{}, f.Close)
		}},
		{"crashed", WaitClosed, func(t *testing.T, f *Fabric) (WaitReason, time.Duration) {
			return blockThen(t, f, bg, time.Time{}, func() { f.CrashRank(0) })
		}},
		{"peer crashed", WaitWake, func(t *testing.T, f *Fabric) (WaitReason, time.Duration) {
			return blockThen(t, f, bg, time.Time{}, func() { f.CrashRank(1) })
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := New(Config{Ranks: 2})
			defer f.Close()
			why, took := c.run(t, f)
			if why != c.want {
				t.Fatalf("Wait returned reason %d, want %d", why, c.want)
			}
			if took > cancelBound {
				t.Fatalf("Wait took %v to return, want < %v", took, cancelBound)
			}
		})
	}
}

// A snapshot taken before the event makes Wait return without blocking:
// the lost-wake-up argument every caller relies on.
func TestWaitSatisfiedOnEntry(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	ep := f.Endpoint(0)
	bg := context.Background()

	gen := ep.Gen()
	if err := f.Send(1, 0, 7, nil); err != nil {
		t.Fatal(err)
	}
	if why := ep.Wait(bg, gen, time.Time{}); why != WaitArrival {
		t.Fatalf("delivery after the snapshot: reason %d, want arrival", why)
	}
	gen = ep.Gen()
	ep.Wake()
	if why := ep.Wait(bg, gen, time.Time{}); why != WaitWake {
		t.Fatalf("Wake after the snapshot: reason %d, want wake", why)
	}
	if why := ep.Wait(bg, ep.Gen(), time.Now().Add(-time.Second)); why != WaitDeadline {
		t.Fatalf("expired deadline: reason %d, want deadline", why)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if why := ep.Wait(ctx, ep.Gen(), time.Time{}); why != WaitCtx {
		t.Fatalf("cancelled ctx: reason %d, want ctx", why)
	}
}

// With an injected clock the deadline is a function of fabric time: real
// time passing does not fire it, one clock jump past it does.
func TestWaitDeadlineFollowsInjectedClock(t *testing.T) {
	var off atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clk := clockFunc(func() time.Time { return base.Add(time.Duration(off.Load())) })
	f := New(Config{Ranks: 1, Clock: clk})
	defer f.Close()
	ep := f.Endpoint(0)
	got := make(chan WaitReason, 1)
	go func() { got <- ep.Wait(context.Background(), ep.Gen(), base.Add(time.Hour)) }()
	select {
	case why := <-got:
		t.Fatalf("Wait returned (reason %d) before the fabric clock moved", why)
	case <-time.After(20 * time.Millisecond):
	}
	off.Store(int64(2 * time.Hour))
	select {
	case why := <-got:
		if why != WaitDeadline {
			t.Fatalf("reason %d, want deadline", why)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not observe the advanced clock")
	}
}

type clockFunc func() time.Time

func (c clockFunc) Now() time.Time { return c() }

// Concurrent waiters on one mailbox, each re-snapshotting around a drain
// like the protocol loops do, must together consume every delivery: if any
// wake-up were lost a waiter would sleep on a non-empty mailbox forever.
func TestWaitConcurrentWaitersLoseNoWakeup(t *testing.T) {
	const waiters, msgs = 4, 400
	f := New(Config{Ranks: 2})
	defer f.Close()
	ep := f.Endpoint(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var got atomic.Int64
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < msgs {
				gen := ep.Gen()
				for {
					_, ok, err := ep.TryRecv(AnySource, AnyTag)
					if err != nil {
						t.Error(err)
						return
					}
					if !ok {
						break
					}
					if got.Add(1) == msgs {
						// Release the peers idling on an empty mailbox.
						ep.Wake()
					}
				}
				if got.Load() >= msgs {
					return
				}
				if ep.Wait(ctx, gen, time.Time{}) == WaitCtx {
					t.Errorf("waiter stuck with %d/%d messages consumed", got.Load(), msgs)
					return
				}
			}
		}()
	}
	for i := range msgs {
		if err := f.Send(1, 0, i, nil); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			time.Sleep(50 * time.Microsecond) // let waiters drain and block again
		}
	}
	wg.Wait()
	if got.Load() != msgs {
		t.Fatalf("consumed %d of %d messages", got.Load(), msgs)
	}
}

func TestWaitZeroAllocs(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	ep := f.Endpoint(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	far := time.Now().Add(time.Hour)

	// Satisfied on entry: the snapshot predates a Wake.
	ep.Wake()
	ep.Wait(ctx, Gen{}, far) // registers ctx once, outside the count
	if n := testing.AllocsPerRun(200, func() {
		gen := ep.Gen()
		ep.Wake()
		ep.Wait(ctx, gen, far)
	}); n != 0 {
		t.Errorf("Wait satisfied on entry allocates %v per call, want 0", n)
	}

	// Woken by an arrival while blocked, deadline timer armed. The sender
	// ships one shared payload and the waiter drains it, so the only
	// allocations left to count are the wait's own.
	payload := []byte{1}
	kick := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-kick:
				time.Sleep(200 * time.Microsecond) // let the waiter block
				f.SendShared(1, 0, 7, payload)
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)
	if n := testing.AllocsPerRun(50, func() {
		gen := ep.Gen()
		kick <- struct{}{}
		if why := ep.Wait(ctx, gen, far); why != WaitArrival {
			t.Errorf("reason %d, want arrival", why)
		}
		ep.TryRecv(1, 7)
	}); n != 0 {
		t.Errorf("Wait woken by arrival allocates %v per call, want 0", n)
	}
}

func TestSooner(t *testing.T) {
	var none time.Time
	a, b := time.Unix(10, 0), time.Unix(20, 0)
	for _, c := range []struct{ x, y, want time.Time }{
		{none, none, none}, {a, none, a}, {none, a, a}, {a, b, a}, {b, a, a},
	} {
		if got := Sooner(c.x, c.y); !got.Equal(c.want) {
			t.Errorf("Sooner(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}
