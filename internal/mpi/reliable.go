package mpi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Acknowledged-delivery mode. The paper's runtime sits on MPI and trusts
// the fabric completely (§3.4); this layer removes that trust. Every
// point-to-point message is wrapped in a frame carrying a per-(src,dst)
// sequence number and a CRC-32 over the whole frame. The receiver
// acknowledges every valid frame (including duplicates, whose first ack
// may have been lost), drops corrupt frames silently so the sender's
// retransmit fires, and reassembles frames into per-sender sequence order
// before tag matching — restoring MPI's non-overtaking rule on a fabric
// that reorders. The sender retransmits on ack timeout with exponential
// backoff and, when a peer's acknowledgements stop for good (or the fabric
// reports it crashed), fails fast with a RankLostError instead of blocking
// forever — the hook the cluster runtime uses to degrade gracefully.

// Reserved wire tags, far above both user tags and the collective tag
// sequence. In reliable mode every frame travels on one of these; the
// application-level tag rides inside the frame.
const (
	tagRelData = 1 << 30
	tagRelAck  = tagRelData + 1
)

// Frame kinds.
const (
	kindData uint8 = 0xD1
	kindAck  uint8 = 0xA2
	// kindCoal is a coalesced container frame: a sequence of sub-records
	// (data, ack batches, beats) sharing one CRC, so small protocol
	// messages stop paying a full frame each on the wire.
	kindCoal uint8 = 0xC0
)

// Sub-record kinds inside a kindCoal frame.
const (
	subData uint8 = 0x01 // one sequenced data message: seq, tag, payload
	subAck  uint8 = 0x02 // a batch of acknowledgements: count, then seqs
	subBeat uint8 = 0x03 // one fire-and-forget beat: tag, payload
)

// ErrRankLost reports that a peer stopped acknowledging deliveries (or
// crashed outright) and has been declared dead.
var ErrRankLost = errors.New("mpi: rank lost")

// RankLostError carries which rank was lost and how hard we tried. It
// unwraps to ErrRankLost, so callers test with errors.Is.
type RankLostError struct {
	Rank     int
	Attempts int
}

func (e *RankLostError) Error() string {
	return fmt.Sprintf("mpi: rank %d lost after %d delivery attempts", e.Rank, e.Attempts)
}

func (e *RankLostError) Unwrap() error { return ErrRankLost }

// ackBackoff multiplies the ack timeout after each retransmission.
const ackBackoff = 1.6

// ReliableConfig tunes the ack/retry protocol. Zero values select the
// defaults noted on each field.
type ReliableConfig struct {
	// AckTimeout is the first attempt's acknowledgement deadline
	// (default 5ms); later attempts back off from it. When the fabric
	// simulates wire delay, the effective deadline is floored at twice the
	// frame+ack round trip so simulated latency never reads as loss.
	AckTimeout time.Duration
	// Retries is the number of retransmissions before a silent peer is
	// declared lost (default 8).
	Retries int
	// MaxAckTimeout caps the backed-off timeout (default 250ms).
	MaxAckTimeout time.Duration
	// BackoffJitter spreads each attempt's ack deadline by up to this
	// fraction of the timeout, drawn from a seeded per-rank stream
	// (default 0.2; negative disables). Without it, every rank blocked on
	// the same event hits the shared ack-timeout floor at the same instant
	// and retransmits in lockstep — a synchronized retransmit storm
	// that re-congests the fabric exactly when it is weakest. Jitter is
	// strictly additive, so the round-trip floor that keeps simulated
	// latency from reading as loss is never undercut, and the jittered
	// deadline is still measured on the fabric clock.
	BackoffJitter float64
	// JitterSeed seeds the jitter stream; the rank is mixed in, so ranks
	// sharing a config (the SPMD default) still draw divergent jitter.
	JitterSeed int64
	// RecvTimeout bounds a blocking receive; 0 waits forever. Receives
	// from a specific rank fail fast regardless when the fabric reports
	// that rank crashed.
	RecvTimeout time.Duration
	// CoalesceDelay bounds how long a buffered beat may wait for a fuller
	// frame before a deadline flush, measured on the fabric clock
	// (default 1ms). Acknowledgements are not subject to it: they always
	// flush at the end of the pump cycle that produced them.
	CoalesceDelay time.Duration
	// CoalesceLimit is the number of beats buffered per peer that forces
	// an immediate flush (default 8).
	CoalesceLimit int
	// DisableCoalesce reverts to the one-frame-per-message wire shape:
	// every ack is its own frame and beats become ordinary acknowledged
	// sends. Used by the message-volume gate to measure what coalescing
	// saves.
	DisableCoalesce bool
	// Tracer, when non-nil, records retransmissions and dropped frames
	// as trace events ("net.retry", "net.recover", "net.corrupt-drop",
	// "net.dup-drop").
	Tracer *trace.Tracer
}

func (cfg ReliableConfig) withDefaults() ReliableConfig {
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Millisecond
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 8
	}
	if cfg.MaxAckTimeout <= 0 {
		cfg.MaxAckTimeout = 250 * time.Millisecond
	}
	if cfg.BackoffJitter == 0 {
		cfg.BackoffJitter = 0.2
	}
	if cfg.BackoffJitter < 0 {
		cfg.BackoffJitter = 0
	}
	if cfg.CoalesceDelay <= 0 {
		cfg.CoalesceDelay = time.Millisecond
	}
	if cfg.CoalesceLimit <= 0 {
		cfg.CoalesceLimit = 8
	}
	return cfg
}

// ReliableStats counts protocol activity on one communicator.
type ReliableStats struct {
	FramesSent     int64
	Retries        int64
	AcksSent       int64 // logical acknowledgements (batched acks count each seq)
	Delivered      int64
	DupDropped     int64
	CorruptDropped int64
	// CoalescedFrames counts physical kindCoal frames emitted; the acks
	// and beats they carried are in AcksSent and BeatsSent.
	CoalescedFrames int64
	// BeatsSent counts fire-and-forget beats shipped (in coalesced frames
	// or piggybacked on data frames).
	BeatsSent int64
}

// pendFrame is an out-of-order data frame parked until the gap fills.
type pendFrame struct {
	tag     int
	payload []byte
}

// reliable holds the protocol state of one communicator. State access is
// mutex-guarded (never across a wait) so helper goroutines (Irecv) stay
// safe, but the design point is the single owning goroutine of the Comm.
type reliable struct {
	c   *Comm
	cfg ReliableConfig
	// clk is the fabric's time source. Every protocol deadline — ack
	// timeouts, receive timeouts — is computed and checked against it, so
	// timeout behavior follows simulated fabric time and tests can pin it
	// with an injected clock. Never call time.Now here.
	clk transport.Clock
	// rng draws retransmit-backoff jitter: seeded (JitterSeed ⊕ rank), so
	// a run replays identically while ranks desynchronize. Guarded by mu.
	rng *rand.Rand

	mu      sync.Mutex
	nextSeq []uint64               // per dst: next sequence number to assign
	acked   []map[uint64]struct{}  // per dst: acknowledged sends
	expect  []uint64               // per src: next in-order sequence expected
	ahead   []map[uint64]pendFrame // per src: frames ahead of the expected seq
	queue   []transport.Message    // reassembled, tag-matchable deliveries
	stats   ReliableStats

	// Coalescing state (unused when cfg.DisableCoalesce).
	coalesce  bool
	pendAcks  [][]uint64    // per dst: acks collected during the current pump
	beats     [][]pendFrame // per dst: buffered fire-and-forget beats
	beatSince []time.Time   // per dst: fabric-clock time the oldest beat was buffered
}

func newReliable(c *Comm, cfg ReliableConfig) *reliable {
	n := c.ep.Ranks()
	cfg = cfg.withDefaults()
	r := &reliable{
		c:         c,
		cfg:       cfg,
		clk:       c.f.Clock(),
		rng:       rand.New(rand.NewSource(cfg.JitterSeed*0x9E3779B9 + int64(c.Rank())*0x85EBCA6B + 1)),
		nextSeq:   make([]uint64, n),
		acked:     make([]map[uint64]struct{}, n),
		expect:    make([]uint64, n),
		ahead:     make([]map[uint64]pendFrame, n),
		coalesce:  !cfg.DisableCoalesce,
		pendAcks:  make([][]uint64, n),
		beats:     make([][]pendFrame, n),
		beatSince: make([]time.Time, n),
	}
	for i := 0; i < n; i++ {
		r.acked[i] = map[uint64]struct{}{}
		r.ahead[i] = map[uint64]pendFrame{}
	}
	return r
}

// encodeData builds a data frame: body ++ crc32(body).
func encodeData(seq uint64, tag int, payload []byte) []byte {
	w := serial.NewWriter(len(payload) + 32)
	w.U8(kindData)
	w.U64(seq)
	w.Int(tag)
	w.RawBytes(payload)
	w.FinishCRC()
	return w.Bytes()
}

// encodeAck builds an acknowledgement frame.
func encodeAck(seq uint64) []byte {
	w := serial.NewWriter(16)
	w.U8(kindAck)
	w.U64(seq)
	w.FinishCRC()
	return w.Bytes()
}

// coalSub is one parsed sub-record of a coalesced frame.
type coalSub struct {
	kind    uint8
	seq     uint64 // subData
	seqs    []uint64
	tag     int
	payload []byte
}

// decodeCoal parses the sub-records of a kindCoal body (after the leading
// kind byte). ok is false for any structural violation; the CRC has
// already validated the bytes, so a violation means a broken encoder, but
// the protocol still treats it as corruption rather than decoding garbage.
func decodeCoal(br *serial.Reader) (subs []coalSub, ok bool) {
	for br.Err() == nil && br.Remaining() > 0 {
		switch kind := br.U8(); kind {
		case subData:
			seq := br.U64()
			tag := br.Int()
			payload := br.RawBytes()
			subs = append(subs, coalSub{kind: subData, seq: seq, tag: tag, payload: payload})
		case subAck:
			n := br.U32()
			if int(n) > br.Remaining()/8 {
				return nil, false
			}
			seqs := make([]uint64, n)
			for i := range seqs {
				seqs[i] = br.U64()
			}
			subs = append(subs, coalSub{kind: subAck, seqs: seqs})
		case subBeat:
			tag := br.Int()
			payload := br.RawBytes()
			subs = append(subs, coalSub{kind: subBeat, tag: tag, payload: payload})
		default:
			return nil, false
		}
	}
	if br.Err() != nil {
		return nil, false
	}
	return subs, true
}

// pump drains every frame the fabric has for this rank without blocking:
// data frames are verified, acknowledged, deduplicated, and reassembled
// into per-sender order; ack frames mark pending sends complete. The
// acknowledgements a pump collects are flushed before it returns — an ack
// held across application compute would read as loss to the stop-and-wait
// sender and trigger retransmits of full data frames. Callers must hold
// r.mu.
func (r *reliable) pump() error {
	for _, wireTag := range [2]int{tagRelData, tagRelAck} {
		for {
			m, ok, err := r.c.ep.TryRecv(transport.AnySource, wireTag)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := r.handleFrame(m); err != nil {
				return err
			}
		}
	}
	return r.flushPending()
}

// handleFrame processes one incoming wire frame of any kind.
func (r *reliable) handleFrame(m transport.Message) error {
	body, valid := serial.VerifyCRC(m.Payload)
	if !valid {
		// Corrupt in flight: drop without acking; the sender retransmits.
		return r.dropCorrupt(m)
	}
	br := serial.NewReader(body)
	switch kind := br.U8(); kind {
	case kindAck:
		seq := br.U64()
		if br.Err() != nil || br.Remaining() != 0 {
			return r.dropCorrupt(m)
		}
		r.acked[m.Src][seq] = struct{}{}
		return nil
	case kindData:
		seq := br.U64()
		tag := br.Int()
		payload := br.RawBytes()
		if br.Err() != nil || br.Remaining() != 0 {
			return r.dropCorrupt(m)
		}
		return r.acceptData(m.Src, seq, tag, payload)
	case kindCoal:
		subs, ok := decodeCoal(br)
		if !ok {
			return r.dropCorrupt(m)
		}
		for _, s := range subs {
			switch s.kind {
			case subData:
				if err := r.acceptData(m.Src, s.seq, s.tag, s.payload); err != nil {
					return err
				}
			case subAck:
				for _, seq := range s.seqs {
					r.acked[m.Src][seq] = struct{}{}
				}
			case subBeat:
				// Beats bypass sequencing and deduplication entirely:
				// deliver as-is. They may be lost, duplicated, or overtake
				// data — the contract of SendBeat.
				r.enqueue(m.Src, s.tag, s.payload)
			}
		}
		return nil
	default:
		return r.dropCorrupt(m)
	}
}

func (r *reliable) dropCorrupt(m transport.Message) error {
	r.stats.CorruptDropped++
	r.cfg.Tracer.Instant(r.c.Rank(), "net.corrupt-drop", int64(len(m.Payload)))
	return nil
}

// acceptData runs the sequencing machinery for one data message. The ack
// is queued for the end-of-pump batch flush when coalescing, sent
// immediately otherwise; either way every valid message is acknowledged —
// a duplicate usually means our first ack was lost.
func (r *reliable) acceptData(src int, seq uint64, tag int, payload []byte) error {
	if r.coalesce {
		r.pendAcks[src] = append(r.pendAcks[src], seq)
	} else {
		if err := r.c.ep.SendShared(src, tagRelAck, encodeAck(seq)); err != nil {
			return err
		}
		r.stats.AcksSent++
	}
	switch {
	case seq == r.expect[src]:
		r.enqueue(src, tag, payload)
		r.expect[src]++
		for {
			pf, ok := r.ahead[src][r.expect[src]]
			if !ok {
				break
			}
			delete(r.ahead[src], r.expect[src])
			r.enqueue(src, pf.tag, pf.payload)
			r.expect[src]++
		}
	case seq > r.expect[src]:
		if _, dup := r.ahead[src][seq]; dup {
			r.stats.DupDropped++
			r.cfg.Tracer.Instant(r.c.Rank(), "net.dup-drop", int64(len(payload)))
		} else {
			r.ahead[src][seq] = pendFrame{tag: tag, payload: payload}
		}
	default: // seq < expected: already delivered
		r.stats.DupDropped++
		r.cfg.Tracer.Instant(r.c.Rank(), "net.dup-drop", int64(len(payload)))
	}
	return nil
}

// flushPending emits, per peer, the acks collected during the current pump
// cycle and any beat batch that is full or past its fabric-clock deadline.
// A single ack with no beats keeps the compact legacy frame; anything more
// shares one coalesced frame. Callers hold r.mu.
func (r *reliable) flushPending() error {
	if !r.coalesce {
		return nil
	}
	var now time.Time
	for dst := range r.pendAcks {
		acks, beats := r.pendAcks[dst], r.beats[dst]
		if len(acks) == 0 && len(beats) == 0 {
			continue
		}
		if len(acks) == 0 && len(beats) < r.cfg.CoalesceLimit {
			if now.IsZero() {
				now = r.clk.Now()
			}
			if now.Sub(r.beatSince[dst]) < r.cfg.CoalesceDelay {
				continue // beats alone wait for a fuller frame
			}
		}
		if err := r.flushTo(dst); err != nil {
			return err
		}
	}
	return nil
}

// flushTo ships dst's pending acks and beats now. Callers hold r.mu.
func (r *reliable) flushTo(dst int) error {
	acks, beats := r.pendAcks[dst], r.beats[dst]
	var frame []byte
	if len(acks) == 1 && len(beats) == 0 {
		frame = encodeAck(acks[0])
	} else {
		w := serial.NewWriter(16 + 8*len(acks) + 24*len(beats))
		w.U8(kindCoal)
		appendAckSub(w, acks)
		for _, b := range beats {
			appendBeatSub(w, b)
		}
		w.FinishCRC()
		frame = w.Bytes()
		r.stats.CoalescedFrames++
	}
	r.stats.AcksSent += int64(len(acks))
	r.stats.BeatsSent += int64(len(beats))
	r.pendAcks[dst] = acks[:0]
	for i := range beats {
		beats[i] = pendFrame{}
	}
	r.beats[dst] = beats[:0]
	r.beatSince[dst] = time.Time{}
	return r.c.ep.SendShared(dst, tagRelAck, frame)
}

// appendAckSub writes one subAck record (omitted when empty).
func appendAckSub(w *serial.Writer, acks []uint64) {
	if len(acks) == 0 {
		return
	}
	w.U8(subAck)
	w.U32(uint32(len(acks)))
	for _, seq := range acks {
		w.U64(seq)
	}
}

// appendBeatSub writes one subBeat record.
func appendBeatSub(w *serial.Writer, b pendFrame) {
	w.U8(subBeat)
	w.Int(b.tag)
	w.RawBytes(b.payload)
}

func (r *reliable) enqueue(src, tag int, payload []byte) {
	r.queue = append(r.queue, transport.Message{Src: src, Tag: tag, Payload: payload})
	r.stats.Delivered++
}

// enqueueLocal delivers a self-addressed message, which never touches the
// mailbox: a receive idling there (an Irecv helper) is woken explicitly.
func (r *reliable) enqueueLocal(tag int, payload []byte) {
	r.mu.Lock()
	r.enqueue(r.c.Rank(), tag, payload)
	r.mu.Unlock()
	r.c.ep.Wake()
}

// idleUntil is deadline, or sooner if a buffered beat batch comes due for
// its CoalesceDelay flush first. Callers hold r.mu.
func (r *reliable) idleUntil(deadline time.Time) time.Time {
	for dst, beats := range r.beats {
		if len(beats) > 0 {
			deadline = transport.Sooner(deadline, r.beatSince[dst].Add(r.cfg.CoalesceDelay))
		}
	}
	return deadline
}

// takeAck consumes dst's acknowledgement of seq, if any. Callers hold r.mu.
func (r *reliable) takeAck(dst int, seq uint64) bool {
	_, ok := r.acked[dst][seq]
	if ok {
		delete(r.acked[dst], seq)
	}
	return ok
}

// send transmits one message with ack/retry. It blocks until the receiver
// acknowledges (stop-and-wait; collectives send sequentially anyway) and
// keeps serving incoming frames while it waits, so two ranks sending to
// each other cannot deadlock. Between frames it idles in Endpoint.Wait until
// a frame arrives, ctx is cancelled or the fabric-clock ack deadline passes.
//
// shared marks a payload the caller has relinquished (see Comm.SendShared):
// local delivery then skips its defensive copy. Wire frames are always
// shipped with transport.SendShared — the frame buffer belongs to this
// layer, is never mutated after encoding, and retransmits resend the same
// bytes, so the fabric's defensive copy would buy nothing.
func (r *reliable) send(ctx context.Context, dst, tag int, payload []byte, shared bool) error {
	rank := r.c.Rank()
	if dst == rank {
		// Local delivery: no wire, no frames.
		cp := payload
		if !shared {
			cp = append([]byte(nil), payload...)
		}
		r.enqueueLocal(tag, cp)
		return nil
	}
	r.mu.Lock()
	seq := r.nextSeq[dst]
	r.nextSeq[dst]++
	frame := r.buildDataFrame(dst, seq, tag, payload)
	r.mu.Unlock()
	timeout := r.cfg.AckTimeout
	maxTimeout := r.cfg.MaxAckTimeout
	// Floor the ack deadline above the simulated round trip. With a wire
	// delay attached to the fabric, the frame and its ack each spend
	// WireDelay on the wire; a fixed 5ms default under, say, a 20ms
	// simulated latency would time out every first attempt and retransmit
	// the whole stream spuriously. High latency must read as latency, not
	// as loss.
	if rtt := r.c.f.WireDelay(len(frame)) + r.c.f.WireDelay(len(encodeAck(seq))); rtt > 0 {
		if floor := 2 * rtt; timeout < floor {
			timeout = floor
		}
		if maxTimeout < timeout {
			maxTimeout = timeout
		}
	}
	var endRecover func()
	finish := func(err error) error {
		if endRecover != nil {
			endRecover()
		}
		return err
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if attempt > r.cfg.Retries {
			return finish(&RankLostError{Rank: dst, Attempts: attempt})
		}
		if r.c.f.Crashed(dst) {
			return finish(&RankLostError{Rank: dst, Attempts: attempt})
		}
		if attempt > 0 {
			r.mu.Lock()
			r.stats.Retries++
			r.mu.Unlock()
			r.cfg.Tracer.Instant(rank, "net.retry", int64(len(payload)))
			if endRecover == nil {
				endRecover = r.cfg.Tracer.Begin(rank, "net.recover")
			}
		}
		if err := r.c.ep.SendShared(dst, tagRelData, frame); err != nil {
			return finish(err)
		}
		r.mu.Lock()
		r.stats.FramesSent++
		r.mu.Unlock()
		deadline := r.clk.Now().Add(r.jitter(timeout))
		for {
			// Read before the pump: a frame landing after the pump has
			// moved the generation, so the Wait below cannot sleep through it.
			gen := r.c.ep.Gen()
			r.mu.Lock()
			acked := r.takeAck(dst, seq)
			var err error
			if !acked {
				if err = r.pump(); err == nil {
					acked = r.takeAck(dst, seq)
				}
			}
			wakeAt := r.idleUntil(deadline)
			r.mu.Unlock()
			if acked {
				return finish(nil)
			}
			if err != nil {
				return finish(err)
			}
			if cerr := ctx.Err(); cerr != nil {
				return finish(cerr)
			}
			if !r.clk.Now().Before(deadline) {
				break
			}
			r.c.ep.Wait(ctx, gen, wakeAt)
		}
		timeout = time.Duration(float64(timeout) * ackBackoff)
		if timeout > maxTimeout {
			timeout = maxTimeout
		}
	}
}

// jitter stretches one attempt's ack timeout by a seeded random fraction in
// [0, BackoffJitter). Strictly additive: the result is never below d, so the
// round-trip floor computed by send holds for every attempt. The draw is the
// only randomness in the protocol and comes from the per-rank seeded stream,
// keeping runs replayable.
func (r *reliable) jitter(d time.Duration) time.Duration {
	if r.cfg.BackoffJitter <= 0 {
		return d
	}
	r.mu.Lock()
	u := r.rng.Float64()
	r.mu.Unlock()
	return d + time.Duration(float64(d)*r.cfg.BackoffJitter*u)
}

// buildDataFrame encodes one data message, piggybacking dst's pending acks
// and beats into a coalesced frame when there are any — they ride for free
// on a frame that is going to that peer anyway. A retransmit resends the
// piggybacked records too; acks are idempotent and beats tolerate
// duplication by contract. Callers hold r.mu.
func (r *reliable) buildDataFrame(dst int, seq uint64, tag int, payload []byte) []byte {
	acks, beats := r.pendAcks[dst], r.beats[dst]
	if !r.coalesce || (len(acks) == 0 && len(beats) == 0) {
		return encodeData(seq, tag, payload)
	}
	w := serial.NewWriter(len(payload) + 48 + 8*len(acks) + 24*len(beats))
	w.U8(kindCoal)
	w.U8(subData)
	w.U64(seq)
	w.Int(tag)
	w.RawBytes(payload)
	appendAckSub(w, acks)
	for _, b := range beats {
		appendBeatSub(w, b)
	}
	w.FinishCRC()
	r.stats.CoalescedFrames++
	r.stats.AcksSent += int64(len(acks))
	r.stats.BeatsSent += int64(len(beats))
	r.pendAcks[dst] = acks[:0]
	for i := range beats {
		beats[i] = pendFrame{}
	}
	r.beats[dst] = beats[:0]
	r.beatSince[dst] = time.Time{}
	return w.Bytes()
}

// sendBeat queues one fire-and-forget beat for dst. Beats are unsequenced
// and unacknowledged: they may be lost, duplicated (a retransmitted data
// frame re-carries its piggybacked beats), delayed up to CoalesceDelay, or
// overtake sequenced data — suitable only for idempotent liveness signals
// like the farm's heartbeats. A full batch (CoalesceLimit) or an expired
// fabric-clock deadline (CoalesceDelay) flushes the buffer; a data frame
// to the same peer carries pending beats for free. With coalescing
// disabled a beat degrades to an ordinary acknowledged send — the legacy
// wire shape.
func (r *reliable) sendBeat(dst, tag int, payload []byte) error {
	rank := r.c.Rank()
	if dst == rank {
		r.enqueueLocal(tag, append([]byte(nil), payload...))
		return nil
	}
	if !r.coalesce {
		return r.send(context.Background(), dst, tag, payload, false)
	}
	cp := append([]byte(nil), payload...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.beats[dst]) == 0 {
		r.beatSince[dst] = r.clk.Now()
		defer r.c.ep.Wake() // an idling loop adopts the new flush deadline
	}
	r.beats[dst] = append(r.beats[dst], pendFrame{tag: tag, payload: cp})
	if len(r.beats[dst]) >= r.cfg.CoalesceLimit ||
		r.clk.Now().Sub(r.beatSince[dst]) >= r.cfg.CoalesceDelay {
		return r.flushTo(dst)
	}
	return nil
}

// match pops the first queued delivery matching (src, tag).
func (r *reliable) match(src, tag int) (transport.Message, bool) {
	for i, m := range r.queue {
		if (src == transport.AnySource || m.Src == src) && (tag == transport.AnyTag || m.Tag == tag) {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return m, true
		}
	}
	return transport.Message{}, false
}

// recv blocks until a reassembled delivery matches (src, tag). A crashed
// specific source fails fast with RankLostError; RecvTimeout (if set)
// bounds the overall wait on the fabric clock. It idles like send, so an
// arrival, a local enqueue, a peer crash or a cancelled ctx ends the wait.
func (r *reliable) recv(ctx context.Context, src, tag int) (transport.Message, error) {
	var deadline time.Time
	if r.cfg.RecvTimeout > 0 {
		deadline = r.clk.Now().Add(r.cfg.RecvTimeout)
	}
	for {
		gen := r.c.ep.Gen() // before the pump; see send
		r.mu.Lock()
		m, ok := r.match(src, tag)
		var err error
		if !ok {
			if err = r.pump(); err == nil {
				m, ok = r.match(src, tag)
			}
		}
		wakeAt := r.idleUntil(deadline)
		r.mu.Unlock()
		if ok {
			return m, nil
		}
		if err != nil {
			return transport.Message{}, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return transport.Message{}, cerr
		}
		if src != transport.AnySource && src != r.c.Rank() && r.c.f.Crashed(src) {
			return transport.Message{}, &RankLostError{Rank: src}
		}
		if !deadline.IsZero() && !r.clk.Now().Before(deadline) {
			return transport.Message{}, fmt.Errorf("mpi: recv(src=%d, tag=%d) timed out after %v: %w",
				src, tag, r.cfg.RecvTimeout, ErrRankLost)
		}
		r.c.ep.Wait(ctx, gen, wakeAt)
	}
}

// tryRecv is the non-blocking receive: one pump, one match.
func (r *reliable) tryRecv(src, tag int) (transport.Message, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.match(src, tag); ok {
		return m, true, nil
	}
	if err := r.pump(); err != nil {
		return transport.Message{}, false, err
	}
	m, ok := r.match(src, tag)
	return m, ok, nil
}

// ReliableStats returns protocol counters; all-zero in direct mode.
func (c *Comm) ReliableStats() ReliableStats {
	if c.rel == nil {
		return ReliableStats{}
	}
	c.rel.mu.Lock()
	defer c.rel.mu.Unlock()
	return c.rel.stats
}
