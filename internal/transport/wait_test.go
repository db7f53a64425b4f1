package transport

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Contract of the wait primitive: Wait reports why it returned, a snapshot
// taken before a delivery or Wake makes Wait return at once (no lost
// wake-up), cancellation and crashes unblock within the fabric's 100ms
// bound, and a steady-state wait allocates nothing. The TestWaitPoll tests
// cover its two phases: what ends a poll, and when Wait polls at all.

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

// counts reads rank's poll and park counters.
func counts(f *Fabric, rank int) (polls, parks uint64) {
	mb := f.boxes[rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.polls, mb.parks
}

// waitCase ends a Wait at rank 0 of f from inside: how, and the reason a
// Wait must return for it.
type waitCase struct {
	name string
	want WaitReason
	act  func(f *Fabric, cancel context.CancelFunc)
}

var waitCases = []waitCase{
	{"arrival", WaitArrival, func(f *Fabric, _ context.CancelFunc) { f.Send(0, 0, 7, nil) }},
	{"wake", WaitWake, func(f *Fabric, _ context.CancelFunc) { f.Endpoint(0).Wake() }},
	{"closed", WaitClosed, func(f *Fabric, _ context.CancelFunc) { f.Close() }},
	{"crashed", WaitClosed, func(f *Fabric, _ context.CancelFunc) { f.CrashRank(0) }},
	{"ctx", WaitCtx, func(_ *Fabric, cancel context.CancelFunc) { cancel() }},
}

// waitDuring runs a Wait at rank 0 of a fresh fabric of the given ranks,
// acts once ready reports true, and returns the Wait's reason and rank 0's
// poll and park counts.
func waitDuring(t *testing.T, ranks int, c waitCase, ready func(f *Fabric) bool) (WaitReason, uint64, uint64) {
	t.Helper()
	f := New(Config{Ranks: ranks})
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ep := f.Endpoint(0)
	got := make(chan WaitReason, 1)
	gen := ep.Gen()
	go func() { got <- ep.Wait(ctx, gen, time.Time{}) }()
	for !ready(f) {
		runtime.Gosched()
	}
	c.act(f, cancel)
	select {
	case why := <-got:
		polls, parks := counts(f, 0)
		return why, polls, parks
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return")
		return 0, 0, 0
	}
}

// A poll ends on what ends a park, with the same reason. One rank on its
// own is never short of a processor, so its Wait polls; a fabric with a
// rank more than there are processors, all but the waiter busy, parks at
// once. A poll that outlasts its window before the act parks instead, and
// the case is tried again.
func TestWaitPollEndsLikePark(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range waitCases {
		t.Run(c.name, func(t *testing.T) {
			for try := 0; ; try++ {
				why, polls, parks := waitDuring(t, 1, c, func(f *Fabric) bool { p, _ := counts(f, 0); return p == 1 })
				if why != c.want {
					t.Fatalf("poll: reason %d, want %d", why, c.want)
				}
				if polls != 1 {
					t.Fatalf("poll: %d polls, want 1", polls)
				}
				if parks == 0 {
					break
				}
				if try == 100 {
					t.Fatalf("the act never landed inside a %v poll in %d tries", pollWindow, try)
				}
			}
			why, polls, _ := waitDuring(t, procs+1, c, func(f *Fabric) bool { _, p := counts(f, 0); return p == 1 })
			if why != c.want || polls != 0 {
				t.Fatalf("park: reason %d after %d polls, want %d after none", why, polls, c.want)
			}
		})
	}
}

// A deadline inside the poll's window ends the poll with WaitDeadline, and
// one already past on entry wins as it does for a park.
func TestWaitPollEndsAtDeadline(t *testing.T) {
	f := New(Config{Ranks: 1})
	defer f.Close()
	ep := f.Endpoint(0)
	bg := context.Background()
	if why := ep.Wait(bg, ep.Gen(), time.Now().Add(-time.Second)); why != WaitDeadline {
		t.Fatalf("expired deadline: reason %d, want deadline", why)
	}
	for try := 0; ; try++ {
		polls0, parks0 := counts(f, 0)
		why := ep.Wait(bg, ep.Gen(), time.Now().Add(pollWindow/4))
		polls, parks := counts(f, 0)
		if why != WaitDeadline {
			t.Fatalf("reason %d, want deadline", why)
		}
		if polls == polls0+1 && parks == parks0 {
			return
		}
		if try == 100 {
			t.Fatalf("no deadline fell inside a poll in %d tries", try)
		}
	}
}

// With an injected clock Wait never polls, however free the processors: a
// fake clock's waits stay parks.
func TestWaitPollOffUnderInjectedClock(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	f := New(Config{Ranks: 1, Clock: clockFunc(func() time.Time { return base })})
	defer f.Close()
	ep := f.Endpoint(0)
	for _, deadline := range []time.Time{{}, base.Add(time.Hour)} {
		gen := ep.Gen()
		got := make(chan WaitReason, 1)
		go func() { got <- ep.Wait(context.Background(), gen, deadline) }()
		for _, parks := counts(f, 0); parks == 0; _, parks = counts(f, 0) {
			runtime.Gosched()
		}
		ep.Wake()
		if why := <-got; why != WaitWake {
			t.Fatalf("reason %d, want wake", why)
		}
		if polls, _ := counts(f, 0); polls != 0 {
			t.Fatalf("%d polls under an injected clock, want 0", polls)
		}
	}
}

// The gate counts ranks, not waits. With every processor holding a rank
// that is not waiting, a Wait parks at once; one more rank waiting frees a
// processor and the next Wait polls. A helper's Wait through Beside leaves
// its rank counted busy, and never polls, not even with a processor free.
func TestWaitPollGate(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	f := New(Config{Ranks: procs + 1})
	defer f.Close()
	bg := context.Background()
	ep := f.Endpoint(0)
	wait := func(ep *Endpoint, deadline time.Time) {
		if why := ep.Wait(bg, ep.Gen(), deadline); why != WaitDeadline {
			t.Fatalf("reason %d, want deadline", why)
		}
	}
	soon := func() time.Time { return time.Now().Add(2 * time.Millisecond) }

	wait(ep, soon())
	if polls, parks := counts(f, 0); polls != 0 || parks == 0 {
		t.Fatalf("every processor busy: %d polls, %d parks; want a park alone", polls, parks)
	}

	// Rank 1 idles beside its computing owner: still no processor free,
	// and the helper itself parks at once.
	helper := f.Endpoint(1).Beside()
	done := make(chan struct{})
	go func() { defer close(done); helper.Wait(bg, helper.Gen(), time.Time{}) }()
	for _, parks := counts(f, 1); parks == 0; _, parks = counts(f, 1) {
		runtime.Gosched()
	}
	wait(ep, soon())
	if polls, _ := counts(f, 0); polls != 0 {
		t.Fatalf("a helper's wait opened the gate: %d polls", polls)
	}
	if polls, _ := counts(f, 1); polls != 0 {
		t.Fatalf("a helper's wait polled %d times", polls)
	}
	f.Endpoint(1).Wake()
	<-done
	alone := New(Config{Ranks: 1})
	defer alone.Close()
	wait(alone.Endpoint(0).Beside(), soon())
	if polls, _ := counts(alone, 0); polls != 0 {
		t.Fatalf("a helper's wait polled with a processor free: %d polls", polls)
	}

	// Rank 1's owner waits: a processor is free, and rank 0 polls.
	owner := f.Endpoint(1)
	done = make(chan struct{})
	go func() { defer close(done); owner.Wait(bg, owner.Gen(), time.Time{}) }()
	for f.waitRanks.Load() != 1 {
		runtime.Gosched()
	}
	wait(ep, soon())
	if polls, _ := counts(f, 0); polls != 1 {
		t.Fatalf("a processor free: %d polls, want 1", polls)
	}
	owner.Wake()
	<-done
	if n := f.waitRanks.Load(); n != 0 {
		t.Fatalf("%d ranks still counted waiting after every Wait returned", n)
	}
}

// Under a clock that never advances the window never closes: the poll
// ends at its cap, having checked pollCap times.
func TestWaitPollEndsAtCap(t *testing.T) {
	frozen := clockFunc(func() time.Time { return time.Unix(1_700_000_000, 0) })
	checks := 0
	_, ok := poll(frozen, time.Time{}, func() (WaitReason, bool) { checks++; return 0, false })
	if ok || checks != pollCap {
		t.Fatalf("poll under a frozen clock: ok %v after %d checks, want false after %d", ok, checks, pollCap)
	}
}

// BenchmarkWaitHandoff is the wake-up a waiting rank pays: rank 0 enters
// Wait, rank 1 computes for 50 µs, sends, and computes on; the gap from the
// send to rank 0's Wait returning is reported at p10/p50/p90. "poll" is a
// 2-rank fabric, where the waiter polls; "park" has a busy rank for every
// processor, where it parks. pollWindow is sized from the park figures.
func BenchmarkWaitHandoff(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		b.Skip("a handoff between a computing rank and a waiting one needs two processors")
	}
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	for _, c := range []struct {
		name  string
		ranks int
	}{{"poll", 2}, {"park", procs + 1}} {
		b.Run(c.name, func(b *testing.B) {
			f := New(Config{Ranks: c.ranks})
			defer f.Close()
			ep := f.Endpoint(0)
			sent, back := make([]time.Time, b.N), make([]time.Time, b.N)
			var armed atomic.Bool // rank 1 is about to send: rank 0 waits
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := range b.N {
					for !armed.Load() {
					}
					gen := ep.Gen()
					armed.Store(false)
					ep.Wait(context.Background(), gen, time.Time{})
					back[i] = time.Now()
					ep.TryRecv(1, 0)
				}
			}()
			b.ResetTimer()
			for i := range b.N {
				for armed.Store(true); armed.Load(); {
				}
				spin(50 * time.Microsecond) // rank 0 is inside Wait
				sent[i] = time.Now()
				f.Send(1, 0, 0, nil)
				spin(200 * time.Microsecond) // the sender keeps computing
			}
			<-done
			gaps := make([]time.Duration, b.N)
			for i := range gaps {
				gaps[i] = back[i].Sub(sent[i])
			}
			slices.Sort(gaps)
			for _, q := range []struct {
				unit string
				at   int
			}{{"p10-ns", 10}, {"p50-ns", 50}, {"p90-ns", 90}} {
				b.ReportMetric(float64(gaps[(len(gaps)-1)*q.at/100]), q.unit)
			}
		})
	}
}
