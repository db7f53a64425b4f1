package mpi

import (
	"bytes"
	"testing"
	"time"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// TestBeatBatchingByCount: beats buffer until CoalesceLimit, then the whole
// batch ships as one frame — CoalesceLimit beats cost one wire message
// instead of CoalesceLimit framed sends plus acks.
func TestBeatBatchingByCount(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	a := NewReliableComm(f, 0, ReliableConfig{CoalesceLimit: 4})
	b := NewReliableComm(f, 1, ReliableConfig{})

	before := f.Stats().Messages
	for i := 0; i < 4; i++ {
		if err := a.SendBeat(1, 7, []byte{byte(i)}); err != nil {
			t.Fatalf("beat %d: %v", i, err)
		}
	}
	if got := f.Stats().Messages - before; got != 1 {
		t.Fatalf("4 beats crossed the wire in %d messages, want 1 frame", got)
	}
	for i := 0; i < 4; i++ {
		m, ok, err := b.TryRecv(0, 7)
		if err != nil || !ok {
			t.Fatalf("beat %d not delivered: ok=%v err=%v", i, ok, err)
		}
		if len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("beat %d payload %v", i, m.Payload)
		}
	}
	st := a.ReliableStats()
	if st.BeatsSent != 4 || st.CoalescedFrames != 1 {
		t.Fatalf("stats BeatsSent=%d CoalescedFrames=%d, want 4 and 1", st.BeatsSent, st.CoalescedFrames)
	}
}

// TestBeatDeadlineFlush: a partial batch waits, then a pump at the
// fabric-clock deadline flushes it — beats are delayed at most
// coalesceDelay, driven entirely by the injectable clock.
func TestBeatDeadlineFlush(t *testing.T) {
	clk := newFakeClock()
	f := transport.New(transport.Config{Ranks: 2, Clock: clk})
	defer f.Close()
	a := NewReliableComm(f, 0, ReliableConfig{})
	b := NewReliableComm(f, 1, ReliableConfig{})

	if err := a.SendBeat(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBeat(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(coalesceDelay - time.Nanosecond)
	if _, _, err := a.TryRecv(1, 9); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.TryRecv(0, 7); ok {
		t.Fatal("partial beat batch flushed before its deadline")
	}
	clk.Advance(time.Nanosecond)
	// Any pump on the sender notices the expired deadline; TryRecv pumps.
	if _, _, err := a.TryRecv(1, 9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := b.TryRecv(0, 7); err != nil || !ok {
			t.Fatalf("beat %d not delivered after deadline flush: ok=%v err=%v", i, ok, err)
		}
	}
	if st := a.ReliableStats(); st.BeatsSent != 2 || st.CoalescedFrames != 1 {
		t.Fatalf("stats BeatsSent=%d CoalescedFrames=%d, want 2 and 1", st.BeatsSent, st.CoalescedFrames)
	}
}

// TestBeatPiggybackOnData: pending beats ride for free on the next data
// frame to the same peer — no separate beat frame crosses the wire.
func TestBeatPiggybackOnData(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	a := NewReliableComm(f, 0, ReliableConfig{})
	b := NewReliableComm(f, 1, ReliableConfig{})

	for i := 0; i < 3; i++ {
		if err := a.SendBeat(1, 7, nil); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- a.Send(1, 9, []byte("payload")) }()
	m, err := b.Recv(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "payload" {
		t.Fatalf("data payload %q", m.Payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := b.TryRecv(0, 7); err != nil || !ok {
			t.Fatalf("piggybacked beat %d not delivered: ok=%v err=%v", i, ok, err)
		}
	}
	st := a.ReliableStats()
	if st.BeatsSent != 3 || st.CoalescedFrames < 1 {
		t.Fatalf("stats BeatsSent=%d CoalescedFrames=%d, want 3 beats in >=1 coalesced frame",
			st.BeatsSent, st.CoalescedFrames)
	}
}

// TestAckBatchingWireFormat: two data frames drained by one pump — one in
// order, one past a gap — owe one cumulative ack, which shares a frame with
// the beat buffered for the same peer. White-box check of the record layout
// via a raw endpoint peer.
func TestAckBatchingWireFormat(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	raw := f.Endpoint(0) // rank 0 speaks raw frames, no reliable layer
	b := NewReliableComm(f, 1, ReliableConfig{})

	if err := b.SendBeat(0, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := raw.Send(1, tagRelData, dataFrame(0, 9, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := raw.Send(1, tagRelData, dataFrame(2, 9, []byte("z"))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.TryRecv(0, 9); err != nil || !ok {
		t.Fatalf("data not delivered: ok=%v err=%v", ok, err)
	}
	m, ok, err := raw.TryRecv(1, tagRelAck)
	if err != nil || !ok {
		t.Fatalf("no ack frame: ok=%v err=%v", ok, err)
	}
	body, valid := serial.VerifyCRC(m.Payload)
	if !valid {
		t.Fatal("ack frame CRC invalid")
	}
	br := serial.NewReader(body)
	sub, expect, held := br.U8(), br.U64(), br.U8()
	if sub != subAck || expect != 1 || held != 1<<1 {
		t.Fatalf("first record 0x%02X: expect %d, map %08b; want subAck, expect 1, map naming seq 2", sub, expect, held)
	}
	if sub, tag, payload := br.U8(), br.Int(), br.RawBytes(); sub != subBeat || tag != 7 || len(payload) != 0 || br.Err() != nil || br.Remaining() != 0 {
		t.Fatalf("second record 0x%02X tag %d (%d bytes), %d bytes left (%v); want the beat and nothing more",
			sub, tag, len(payload), br.Remaining(), br.Err())
	}
	if _, ok, _ := raw.TryRecv(1, tagRelAck); ok {
		t.Fatal("second ack frame on the wire; both frames should share one ack")
	}
}

// TestSingleAckKeepsLegacyFrame: an owed ack with no beat to share a frame
// with is a frame of that one record, as long as the compact ack frame the
// wire had before frames became record lists.
func TestSingleAckKeepsLegacyFrame(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	raw := f.Endpoint(0)
	b := NewReliableComm(f, 1, ReliableConfig{})

	if err := raw.Send(1, tagRelData, dataFrame(0, 9, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.TryRecv(0, 9); err != nil || !ok {
		t.Fatalf("data not delivered: ok=%v err=%v", ok, err)
	}
	m, ok, err := raw.TryRecv(1, tagRelAck)
	if err != nil || !ok {
		t.Fatalf("no ack frame: ok=%v err=%v", ok, err)
	}
	if want := encodeAck(1, 0); !bytes.Equal(m.Payload, want) || len(want) != ackFrameLen {
		t.Fatalf("single ack frame %x, want %x of %d bytes", m.Payload, want, ackFrameLen)
	}
	if st := b.ReliableStats(); st.CoalescedFrames != 0 {
		t.Fatalf("CoalescedFrames=%d for a single ack, want 0", st.CoalescedFrames)
	}
}

// TestDisableCoalesceLegacyShape: with coalescing off every ack is a frame
// of its own, beats become acknowledged sends, and no frame carries more than
// one record — the flush policy TestCoalescingSavesFarmFrameBytes compares
// against.
func TestDisableCoalesceLegacyShape(t *testing.T) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	cfg := ReliableConfig{DisableCoalesce: true}
	a := NewReliableComm(f, 0, cfg)
	b := NewReliableComm(f, 1, cfg)

	before := f.Stats().Messages
	// A legacy beat is a blocking acked send, so the sender needs a
	// concurrently pumping receiver.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if err := a.SendBeat(1, 7, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if _, err := b.Recv(0, 7); err != nil {
			t.Fatalf("legacy beat %d not delivered: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Each beat is a full acknowledged send: one data frame plus one ack.
	if got := f.Stats().Messages - before; got != 6 {
		t.Fatalf("3 legacy beats crossed the wire in %d messages, want 6 (frame+ack each)", got)
	}
	sa, sb := a.ReliableStats(), b.ReliableStats()
	if sa.CoalescedFrames != 0 || sb.CoalescedFrames != 0 {
		t.Fatalf("CoalescedFrames nonzero with coalescing disabled: %d/%d",
			sa.CoalescedFrames, sb.CoalescedFrames)
	}
}

// farmFrames drives a farm's control-plane traffic on a 2-rank fabric: 25
// batches, each of 8 worker heartbeats followed by a small task result.
// Count-based beat flushes keep every beat batch the same; how many frames
// one ack covers still depends on scheduling, so the totals vary by a few.
func farmFrames(t *testing.T, disable bool) transport.Stats {
	t.Helper()
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	cfg := ReliableConfig{AckTimeout: time.Second, CoalesceLimit: 8, DisableCoalesce: disable}
	worker := NewReliableComm(f, 0, cfg)
	master := NewReliableComm(f, 1, cfg)

	const (
		batches       = 25
		beatsPerBatch = 8
		beatTag       = 7
		taskTag       = 9
	)
	result := make([]byte, 24) // a farm result frame: task id + small payload
	errc := make(chan error, 1)
	go func() {
		for range batches {
			for range beatsPerBatch {
				if err := worker.SendBeat(1, beatTag, nil); err != nil {
					errc <- err
					return
				}
			}
			if err := worker.Send(1, taskTag, result); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for range batches {
		if _, err := master.Recv(0, taskTag); err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := master.TryRecv(0, beatTag)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return f.Stats()
}

// TestCoalescingSavesFarmFrameBytes: on a farm's control plane — bursts of
// heartbeats punctuated by small results — coalescing must save at least a
// quarter of the bytes the one-frame-per-message policy (DisableCoalesce)
// puts on the wire. A bound, not a count: the coalesced run's frame count
// varies with scheduling.
func TestCoalescingSavesFarmFrameBytes(t *testing.T) {
	coalesced, legacy := farmFrames(t, false), farmFrames(t, true)
	saved := 1 - float64(coalesced.Bytes)/float64(legacy.Bytes)
	t.Logf("coalesced %d bytes / %d messages, legacy %d bytes / %d messages: %.1f%% of bytes saved",
		coalesced.Bytes, coalesced.Messages, legacy.Bytes, legacy.Messages, 100*saved)
	if saved < 0.25 {
		t.Fatalf("coalescing saves %.1f%% of legacy bytes (%d -> %d), want >= 25%%",
			100*saved, legacy.Bytes, coalesced.Bytes)
	}
}

// TestEmittedFrameLengths: every frame the layer emits is a list of records
// under one CRC, and its receiver walks it back into the same deliveries. A
// data-only and an ack-only frame keep the length they had when data and ack
// frames had kinds of their own — the record kind byte takes the place of the
// frame kind byte — and a frame of several records, or of beats, is one byte
// shorter than the container it replaces, which led with a kind byte too.
func TestEmittedFrameLengths(t *testing.T) {
	payload, beat := []byte("payload"), []byte("beat")
	const crc = 4
	data := 1 + 8 + 8 + 8 + len(payload) // kind, seq, tag, length, payload
	ack := 1 + 8 + 1                     // kind, expect, map
	beats := 2 * (1 + 8 + 8 + len(beat)) // two of kind, tag, length, payload
	for _, c := range []struct {
		name        string
		owed, send  bool
		beats       int
		wireTag     int
		legacy, cut int // the length before records, and by how much it fell
	}{
		{"data-only", false, true, 0, tagRelData, data + crc, 0},
		{"ack-only", true, false, 0, tagRelAck, ack + crc, 0},
		{"data+ack+beats", true, true, 2, tagRelData, 1 + data + ack + beats + crc, 1},
		{"beats-only", false, false, 2, tagRelAck, 1 + beats + crc, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := transport.New(transport.Config{Ranks: 2})
			defer f.Close()
			a := NewReliableComm(f, 0, ReliableConfig{})
			for range c.beats {
				if err := a.SendBeat(1, 7, beat); err != nil {
					t.Fatal(err)
				}
			}
			a.rel.owed[1] = c.owed
			var err error
			if c.send {
				err = a.Send(1, 9, payload)
			} else {
				a.rel.mu.Lock()
				err = a.rel.flushTo(1)
				a.rel.mu.Unlock()
			}
			if err != nil {
				t.Fatal(err)
			}
			m, ok, err := f.TryRecv(1, 0, c.wireTag)
			if err != nil || !ok || len(m.Payload) != c.legacy-c.cut {
				t.Fatalf("frame of %d bytes (ok=%v, %v), want %d", len(m.Payload), ok, err, c.legacy-c.cut)
			}
			if coalesced := a.ReliableStats().CoalescedFrames; coalesced != int64(c.cut) {
				t.Fatalf("CoalescedFrames=%d, want %d", coalesced, c.cut)
			}
			deliveries := c.beats
			if c.send {
				deliveries++
			}
			b := NewReliableComm(f, 1, ReliableConfig{}).rel
			b.mu.Lock()
			defer b.mu.Unlock()
			if err := b.handleFrame(m); err != nil || len(b.queue) != deliveries || b.stats.CorruptDropped != 0 {
				t.Fatalf("receiver: %v, queue %+v, %d dropped; want %d deliveries", err, b.queue, b.stats.CorruptDropped, deliveries)
			}
		})
	}
}

// TestSharedRawPayloadSurvivesCorruptFaults: the end-to-end zero-copy chaos
// case. A float64 array is encoded with serial.Raw (aliasing its backing
// store), shipped via SendShared over a fabric injecting bit corruption,
// and decoded on the far side. The CRC must catch every injected flip
// (retransmits repair it), the received values must be bit-identical, and
// the sender's array must come through unmutated — corruption happens to a
// copy, never to the aliased buffer.
func TestSharedRawPayloadSurvivesCorruptFaults(t *testing.T) {
	f := transport.New(transport.Config{
		Ranks: 2,
		Fault: &transport.FaultConfig{Seed: 42, Default: transport.FaultProbs{Corrupt: 0.3}},
	})
	defer f.Close()
	cfg := ReliableConfig{AckTimeout: time.Millisecond, Retries: 100}
	a := NewReliableComm(f, 0, cfg)
	b := NewReliableComm(f, 1, cfg)

	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = float64(i) * 1.25
	}
	want := append([]float64(nil), xs...)

	const rounds = 20
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := a.SendShared(1, 7, serial.Raw(xs)); err != nil {
				done <- err
				return
			}
		}
		done <- finish(a)
	}()
	for i := 0; i < rounds; i++ {
		m, err := b.Recv(0, 7)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		got, err := serial.RawCopy[float64](m.Payload)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d element %d: %v, want %v (corruption leaked past the CRC)",
					i, j, got[j], want[j])
			}
		}
	}
	// Keep pumping until the sender finishes: its last ack may have been
	// corrupted, in which case only our pump re-acks the retransmit.
	for {
		var err error
		select {
		case err = <-done:
		default:
			_, _, err = b.TryRecv(0, 7)
			if err == nil {
				continue
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	for j := range want {
		if xs[j] != want[j] {
			t.Fatalf("sender's aliased array mutated at %d: %v, want %v", j, xs[j], want[j])
		}
	}
	if st := b.ReliableStats(); st.CorruptDropped == 0 {
		t.Fatal("no frames were corrupt-dropped; the chaos case did not exercise the CRC")
	}
}
