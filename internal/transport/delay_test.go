package transport

import (
	"sort"
	"testing"
	"time"
)

func TestDelayHoldsMessages(t *testing.T) {
	f := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: 30 * time.Millisecond}})
	defer f.Close()
	start := time.Now()
	if err := f.Send(0, 1, 0, []byte("held")); err != nil {
		t.Fatal(err)
	}
	// Immediately after the send, nothing is receivable.
	if _, ok, _ := f.TryRecv(1, AnySource, AnyTag); ok {
		t.Fatal("message receivable before its delay elapsed")
	}
	m, err := f.Recv(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("message arrived after %v, want ≥ ~30ms", elapsed)
	}
	if string(m.Payload) != "held" {
		t.Fatalf("payload = %q", m.Payload)
	}
}

func TestDelayBandwidthComponent(t *testing.T) {
	// 1 KB at 100 KB/s → 10 ms of wire time.
	f := New(Config{Ranks: 2, Delay: &DelayConfig{BytesPerSec: 100 * 1024}})
	defer f.Close()
	start := time.Now()
	if err := f.Send(0, 1, 0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recv(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("1KB at 100KB/s arrived after %v", elapsed)
	}
}

func TestDelayPreservesPerEdgeOrder(t *testing.T) {
	// A large message followed by a small one on the same edge must still
	// arrive in send order (non-overtaking), even though the small one's
	// wire time alone would finish first.
	f := New(Config{Ranks: 2, Delay: &DelayConfig{BytesPerSec: 1024 * 1024}})
	defer f.Close()
	if err := f.Send(0, 1, 7, make([]byte, 64*1024)); err != nil { // ~62ms
		t.Fatal(err)
	}
	if err := f.Send(0, 1, 7, []byte{1}); err != nil { // ~1µs
		t.Fatal(err)
	}
	m1, err := f.Recv(1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f.Recv(1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Payload) != 64*1024 || len(m2.Payload) != 1 {
		t.Fatalf("messages overtook: got %d then %d bytes", len(m1.Payload), len(m2.Payload))
	}
}

func TestDelayIndependentEdges(t *testing.T) {
	// A slow message on one edge must not delay another edge.
	f := New(Config{Ranks: 3, Delay: &DelayConfig{BytesPerSec: 64 * 1024}})
	defer f.Close()
	if err := f.Send(0, 1, 0, make([]byte, 32*1024)); err != nil { // ~500ms on edge 0→1
		t.Fatal(err)
	}
	start := time.Now()
	if err := f.Send(2, 1, 0, []byte{9}); err != nil { // tiny on edge 2→1
		t.Fatal(err)
	}
	if _, err := f.Recv(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("independent edge blocked for %v", elapsed)
	}
}

func TestDelayedDeliveryToClosedFabricDrops(t *testing.T) {
	f := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: 20 * time.Millisecond}})
	if err := f.Send(0, 1, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The delayed delivery lands on a closed mailbox and is dropped; the
	// delayer goroutine must still terminate.
	f.delay.Wait()
}

func TestDelayedSendToClosedFabricErrors(t *testing.T) {
	f := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: time.Millisecond}})
	f.Close()
	if err := f.Send(0, 1, 0, []byte("x")); err == nil {
		t.Fatal("delayed send to closed fabric succeeded")
	}
}

func TestDelayStatsCountAtSendTime(t *testing.T) {
	f := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: 50 * time.Millisecond}})
	defer f.Close()
	if err := f.Send(0, 1, 0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// Metering is at send time, before delivery.
	if s := f.Stats(); s.Bytes != 100 || s.Messages != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// exchangeMedian runs rounds two-rank exchanges — both ranks send size
// bytes, then both receive, the shape of a halo exchange — and returns rank
// 0's median time from its send to its receive.
func exchangeMedian(t *testing.T, f *Fabric, size, rounds int) time.Duration {
	t.Helper()
	payload := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := f.Send(1, 0, 0, payload); err != nil {
				done <- err
				return
			}
			if _, err := f.Recv(1, 0, 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	took := make([]time.Duration, rounds)
	for i := range took {
		start := time.Now()
		if err := f.Send(0, 1, 0, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Recv(0, 1, 0); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return took[rounds/2]
}

// TestDelayRealizedNearModel pins the wire to what it models: a hold is
// never shorter than WireDelay and, for the sub-tick holds of a halo
// exchange, not a timer tick longer either (a bare time.Sleep realised
// 13–22× the model on a host with a 1.1 ms tick); a multi-millisecond hold
// still lands within a tenth. Host noise only lengthens a sample, so the
// bound is on the best median of three attempts.
func TestDelayRealizedNearModel(t *testing.T) {
	f := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: 50 * time.Microsecond, BytesPerSec: 125e6}})
	defer f.Close()
	for _, size := range []int{64, 4096} {
		model := f.WireDelay(size)
		best := time.Duration(1 << 62)
		for attempt := 0; attempt < 3 && best > 3*model; attempt++ {
			med := exchangeMedian(t, f, size, 101)
			if med < model {
				t.Fatalf("%d B: median exchange %v is shorter than the modelled %v", size, med, model)
			}
			best = min(best, med)
		}
		t.Logf("%d B: modelled %v, realised %v (%.2f×)", size, model, best, float64(best)/float64(model))
		if best > 3*model {
			t.Errorf("%d B: median exchange %v, want ≤ 3× the modelled %v", size, best, model)
		}
	}

	slow := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: 5 * time.Millisecond}})
	defer slow.Close()
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 3 && best > 5500*time.Microsecond; attempt++ {
		med := exchangeMedian(t, slow, 8, 9)
		if med < 5*time.Millisecond {
			t.Fatalf("5 ms hold realised in %v", med)
		}
		best = min(best, med)
	}
	t.Logf("5 ms hold realised in %v", best)
	if best > 5500*time.Microsecond {
		t.Errorf("5 ms hold realised in %v, want within 10%%", best)
	}
}

// frozenClock never advances: every wait computed on it is the full hold.
type frozenClock struct{}

func (frozenClock) Now() time.Time { return time.Unix(1, 0) }

// TestDelayHoldContracts re-checks, under the hybrid hold, what the sleeping
// one guaranteed: an edge delivers in send order however its holds compare,
// delayer.Wait after Close outlasts every in-flight delivery, an emptied
// edge queue keeps no payload reachable, and a frozen injected Clock sizes
// the hold but cannot stop the message arriving.
func TestDelayHoldContracts(t *testing.T) {
	f := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: 20 * time.Microsecond, BytesPerSec: 64e6}})
	const n = 64
	for i := 0; i < n; i++ {
		// Sizes fall, so each message's own hold is shorter than the one
		// queued before it.
		if err := f.Send(0, 1, 3, make([]byte, 1+(n-i)*512)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := f.Recv(1, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 + (n-i)*512; len(m.Payload) != want {
			t.Fatalf("message %d has %d bytes, want %d: overtaken", i, len(m.Payload), want)
		}
	}
	if err := f.Send(0, 1, 3, []byte("last")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.delay.Wait() // the in-flight delivery lands on a closed mailbox; the drain still ends
	f.delay.mu.Lock()
	eq := f.delay.edges[[2]int{0, 1}]
	f.delay.mu.Unlock()
	eq.mu.Lock()
	defer eq.mu.Unlock()
	if eq.running || len(eq.pending) != 0 {
		t.Fatalf("delayer.Wait returned with the edge still draining: running=%v, %d pending", eq.running, len(eq.pending))
	}
	for i, m := range eq.pending[:cap(eq.pending)] {
		if m.payload != nil {
			t.Fatalf("emptied queue still references the payload in slot %d", i)
		}
	}

	frozen := New(Config{Ranks: 2, Clock: frozenClock{}, Delay: &DelayConfig{Latency: 2 * time.Millisecond}})
	defer frozen.Close()
	start := time.Now()
	if err := frozen.Send(0, 1, 0, []byte("held")); err != nil {
		t.Fatal(err)
	}
	got := make(chan Message, 1)
	go func() {
		m, _ := frozen.Recv(1, 0, 0)
		got <- m
	}()
	select {
	case m := <-got:
		if string(m.Payload) != "held" || time.Since(start) < 2*time.Millisecond {
			t.Fatalf("frozen clock: got %q after %v, want \"held\" after ≥ 2ms", m.Payload, time.Since(start))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a frozen injected clock stalled a delayed delivery")
	}
}

// TestDelayQueueReusesItsArray is the regression test for the pop that
// re-sliced past the last message: a depth-1 edge must not allocate a new
// backing array per message.
func TestDelayQueueReusesItsArray(t *testing.T) {
	f := New(Config{Ranks: 2, Delay: &DelayConfig{Latency: time.Microsecond}})
	defer f.Close()
	round := func() {
		if err := f.Send(0, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Recv(1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	round()
	f.delay.Wait()
	eq := f.delay.edges[[2]int{0, 1}]
	before := cap(eq.pending)
	for i := 0; i < 50; i++ {
		round()
		f.delay.Wait()
	}
	if after := cap(eq.pending); before == 0 || after != before {
		t.Fatalf("depth-1 queue capacity went %d → %d over 50 messages, want unchanged", before, after)
	}
}
