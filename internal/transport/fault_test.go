package transport

import (
	"errors"
	"testing"
	"time"
)

// drain pulls every currently queued message at dst, waiting briefly for
// held (reordered/delayed) deliveries to land.
func drain(t *testing.T, f *Fabric, dst int, wait time.Duration) []Message {
	t.Helper()
	deadline := time.Now().Add(wait)
	var out []Message
	for {
		m, ok, err := f.TryRecv(dst, AnySource, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, m)
			continue
		}
		if time.Now().After(deadline) {
			return out
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestFaultDeterministicDrops(t *testing.T) {
	// The same seed and single-goroutine send sequence must fault
	// identically across two independent fabrics.
	run := func() (delivered int, stats FaultStats) {
		f := New(Config{Ranks: 2, Fault: &FaultConfig{
			Seed:    42,
			Default: FaultProbs{Drop: 0.3},
		}})
		defer f.Close()
		for i := 0; i < 200; i++ {
			if err := f.Send(0, 1, i, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for {
			_, ok, err := f.TryRecv(1, AnySource, AnyTag)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			delivered++
		}
		return delivered, f.Stats().Faults
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("runs diverged: %d/%+v vs %d/%+v", d1, s1, d2, s2)
	}
	if s1.Dropped == 0 || d1+int(s1.Dropped) != 200 {
		t.Fatalf("delivered %d + dropped %d != 200", d1, s1.Dropped)
	}
}

func TestFaultDuplicate(t *testing.T) {
	f := New(Config{Ranks: 2, Fault: &FaultConfig{
		Seed:    7,
		Default: FaultProbs{Duplicate: 1},
	}})
	defer f.Close()
	if err := f.Send(0, 1, 5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	msgs := drain(t, f, 1, 50*time.Millisecond)
	if len(msgs) != 2 {
		t.Fatalf("got %d copies, want 2", len(msgs))
	}
	if f.Stats().Faults.Duplicated != 1 {
		t.Fatalf("stats = %+v", f.Stats().Faults)
	}
	// The copies must not alias one buffer.
	msgs[0].Payload[0] = 'y'
	if msgs[1].Payload[0] != 'x' {
		t.Fatal("duplicate aliases original payload")
	}
}

// TestFaultDuplicateHeldIsItsOwnCopy: a duplicate that a reorder fault holds
// back is its own copy as well, so every delivery belongs to its receiver: a
// receiver that mutates one leaves the other — and the sender's buffer —
// intact, whichever of the two lands first.
func TestFaultDuplicateHeldIsItsOwnCopy(t *testing.T) {
	f := New(Config{Ranks: 2, Fault: &FaultConfig{
		Seed:          7,
		Default:       FaultProbs{Duplicate: 1, Reorder: 1},
		MaxExtraDelay: time.Millisecond,
	}})
	defer f.Close()
	sent := []byte("xy")
	if err := f.Send(0, 1, 5, sent); err != nil {
		t.Fatal(err)
	}
	msgs := drain(t, f, 1, 50*time.Millisecond)
	if len(msgs) != 2 || f.Stats().Faults.Reordered != 1 {
		t.Fatalf("got %d deliveries, stats %+v; want 2 held", len(msgs), f.Stats().Faults)
	}
	msgs[0].Payload[0], msgs[1].Payload[1] = '0', '1'
	if string(msgs[0].Payload) != "0y" || string(msgs[1].Payload) != "x1" || string(sent) != "xy" {
		t.Fatalf("deliveries %q and %q, sent %q: one buffer behind two", msgs[0].Payload, msgs[1].Payload, sent)
	}
}

func TestFaultCorrupt(t *testing.T) {
	f := New(Config{Ranks: 2, Fault: &FaultConfig{
		Seed:    1,
		Default: FaultProbs{Corrupt: 1},
	}})
	defer f.Close()
	orig := []byte{0, 0, 0, 0}
	if err := f.Send(0, 1, 0, orig); err != nil {
		t.Fatal(err)
	}
	m, err := f.Recv(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for i := range m.Payload {
		for b := 0; b < 8; b++ {
			if m.Payload[i]&(1<<b) != 0 {
				flipped++
			}
		}
	}
	if flipped != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", flipped)
	}
	for _, b := range orig {
		if b != 0 {
			t.Fatal("corruption mutated the caller's buffer")
		}
	}
}

func TestFaultReorderDeliversEventually(t *testing.T) {
	f := New(Config{Ranks: 2, Fault: &FaultConfig{
		Seed:          3,
		Default:       FaultProbs{Reorder: 0.5},
		MaxExtraDelay: time.Millisecond,
	}})
	defer f.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := f.Send(0, 1, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := drain(t, f, 1, 200*time.Millisecond)
	if len(msgs) != n {
		t.Fatalf("delivered %d of %d", len(msgs), n)
	}
	if f.Stats().Faults.Reordered == 0 {
		t.Fatal("no reorder faults fired at p=0.5 over 50 sends")
	}
}

func TestFaultCrashSchedule(t *testing.T) {
	f := New(Config{Ranks: 3, Fault: &FaultConfig{
		Seed:    9,
		Crashes: []Crash{{Rank: 1, AfterSends: 2}},
	}})
	defer f.Close()
	// Rank 1 gets two sends, then dies on the third.
	for i := 0; i < 2; i++ {
		if err := f.Send(1, 0, i, []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Send(1, 0, 2, []byte("doomed")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third send err = %v, want ErrCrashed", err)
	}
	if !f.Crashed(1) {
		t.Fatal("rank 1 not marked crashed")
	}
	// Its own receives fail with ErrCrashed, not ErrClosed.
	if _, err := f.Recv(1, AnySource, AnyTag); !errors.Is(err, ErrCrashed) {
		t.Fatalf("recv at crashed rank err = %v", err)
	}
	// Traffic to it disappears silently: the sender sees success.
	if err := f.Send(0, 1, 0, []byte("into the void")); err != nil {
		t.Fatalf("send to crashed rank err = %v, want nil (silent loss)", err)
	}
	// Survivors are unaffected.
	if err := f.Send(0, 2, 0, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if m, err := f.Recv(2, 0, 0); err != nil || string(m.Payload) != "alive" {
		t.Fatalf("survivor recv = %v, %v", m, err)
	}
	if got := f.Stats().Faults.CrashLost; got != 2 {
		t.Fatalf("CrashLost = %d, want 2 (dying send + silent loss)", got)
	}
}

func TestFaultPauseHoldsInbox(t *testing.T) {
	f := New(Config{Ranks: 2, Fault: &FaultConfig{
		Seed:   11,
		Pauses: []Pause{{Rank: 1, AfterDeliveries: 1, Duration: 20 * time.Millisecond}},
	}})
	defer f.Close()
	// First message lands immediately (quota not yet reached).
	if err := f.Send(0, 1, 0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.TryRecv(1, 0, 0); !ok {
		t.Fatal("pre-pause message not delivered")
	}
	// Second message activates the pause and is held.
	if err := f.Send(0, 1, 0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.TryRecv(1, 0, 0); ok {
		t.Fatal("paused message delivered immediately")
	}
	msgs := drain(t, f, 1, 500*time.Millisecond)
	if len(msgs) != 1 || string(msgs[0].Payload) != "b" {
		t.Fatalf("after pause got %v", msgs)
	}
	if f.Stats().Faults.Paused == 0 {
		t.Fatal("pause not counted")
	}
}

func TestCrashRankIdempotent(t *testing.T) {
	f := New(Config{Ranks: 2})
	defer f.Close()
	f.CrashRank(1)
	f.CrashRank(1) // second call must be a no-op, not a panic
	if !f.Crashed(1) || f.Crashed(0) {
		t.Fatal("crash flags wrong")
	}
	if err := f.Send(1, 0, 0, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send from crashed rank err = %v", err)
	}
}
