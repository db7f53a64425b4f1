package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Acknowledged-delivery mode. The paper's runtime sits on MPI and trusts
// the fabric completely (§3.4); this layer removes that trust. Every frame is
// a list of records under one CRC-32: a data record (per-(src,dst) sequence
// number, tag, payload), an ack record, a beat record (tag, payload). A data
// frame leads with its one data record, and the ack owed to and the beats
// buffered for its receiver ride behind it; a frame with no data carries an
// ack, beats, or both. The receiver drops corrupt frames silently,
// reassembles data into per-sender sequence order before tag matching —
// restoring MPI's non-overtaking rule on a fabric that reorders — and answers
// every valid data record (duplicates too) with a cumulative ack: "all below
// expect arrived, and expect+k for each bit k of this map". A lost ack is
// covered by the next; an ack naming a frame past a hole makes the sender
// resend the hole at once (fast retransmit).
//
// The sender is eager, like the buffered standard send of the MPI the paper
// runs on: send ships the frame, records it in its peer's window of
// unacknowledged frames and returns; it waits only while that window
// (sendWindow frames) is full. The windows are served by pump — by whatever
// the communicator's owner does next: a receive, a TryRecv, a Flush. A pump
// retransmits, with exponential backoff, the frames whose ack deadline has
// passed — a lost tail has no later frame to reveal it — and a loop idling
// between pumps sleeps no later than the earliest such deadline (idle). A
// peer that leaves a frame unacknowledged through the whole retry budget, or
// that the fabric reports crashed, is given up on: its window is emptied and
// the loss reported once — by the next send to it, a blocking receive it
// could be stalling, Flush or TakeLost, whichever the owner calls first — so
// nothing blocks forever and the cluster runtime can degrade gracefully. A
// rank that must know its frames arrived calls Flush.

// Reserved wire tags, far above both user tags and the collective tag
// sequence. In reliable mode every frame travels on one of these; the
// application-level tag rides inside the frame.
const (
	tagRelData = 1 << 30
	tagRelAck  = tagRelData + 1
)

// Record kinds; a record's kind byte is all the framing a frame has.
const (
	subData uint8 = 0x01 // one sequenced data message: seq, tag, payload
	subAck  uint8 = 0x02 // one cumulative acknowledgement: expect, gap map
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

// sendWindow is how many frames a rank may have unacknowledged at one peer
// before a send to that peer blocks. A conforming peer therefore never has a
// frame sendWindow or more ahead of the one its receiver expects, and
// per-peer state on both sides is a fixed ring.
const sendWindow = 8

const _ uint8 = 1 << (sendWindow - 1) // an ack's map is one byte: bit k names expect+k

// ackRecordLen is the size of an ack record: kind, expect, map.
const ackRecordLen = 1 + 8 + 1

// ackFrameLen is the size of an ack-only frame: the record and the CRC.
const ackFrameLen = ackRecordLen + 4

// coalesceDelay bounds how long a buffered beat waits for a fuller frame
// before a deadline flush, on the fabric clock. Acknowledgements do not wait:
// they flush at the end of the pump cycle that owed them.
const coalesceDelay = time.Millisecond

// ReliableConfig tunes the ack/retry protocol. Zero values select the
// defaults noted on each field.
type ReliableConfig struct {
	// AckTimeout is how long a frame waits for its acknowledgement before
	// its first timed retransmission (default 5ms); later ones back off from
	// it. A frame that an ack for a later one shows lost is resent at once,
	// so the timeout is paid only for a lost tail frame, or a lost resend.
	// A rank idles toward the deadline on its mailbox timer, which fires at
	// the host timer's tick (~1.1 ms, bench/README.md "Host"): a timeout
	// below a tick rounds up to one. When the fabric simulates wire delay,
	// the effective deadline is floored at twice the frame+ack round trip so
	// simulated latency never reads as loss.
	AckTimeout time.Duration
	// Retries is the number of retransmissions of one frame before its
	// silent peer is declared lost (default 8).
	Retries int
	// MaxAckTimeout caps the backed-off timeout (default 250ms, and never
	// below AckTimeout).
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
	// CoalesceLimit is the number of beats buffered per peer that forces
	// an immediate flush (default 8).
	CoalesceLimit int
	// DisableCoalesce is a flush policy: every data frame is answered by an
	// ack-only frame of its own, nothing rides on a data frame, and beats
	// become ordinary acknowledged sends. TestCoalescingSavesFarmFrameBytes
	// runs with it to measure what coalescing saves.
	DisableCoalesce bool
	// Tracer, when non-nil, records retransmissions and dropped frames
	// as trace events ("net.retry", "net.fast-retry", "net.corrupt-drop",
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
	cfg.MaxAckTimeout = max(cfg.MaxAckTimeout, cfg.AckTimeout)
	if cfg.BackoffJitter == 0 {
		cfg.BackoffJitter = 0.2
	}
	if cfg.BackoffJitter < 0 {
		cfg.BackoffJitter = 0
	}
	if cfg.CoalesceLimit <= 0 {
		cfg.CoalesceLimit = 8
	}
	return cfg
}

// ReliableStats counts protocol activity on one communicator.
type ReliableStats struct {
	FramesSent     int64
	Retries        int64 // retransmissions, timed and fast
	AcksSent       int64 // cumulative acknowledgements, framed or carried in a container
	Delivered      int64
	DupDropped     int64
	CorruptDropped int64
	// CoalescedFrames counts frames emitted with more than one record, or
	// with a beat; the acks and beats they carried are in AcksSent and
	// BeatsSent.
	CoalescedFrames int64
	BeatsSent       int64 // fire-and-forget beats shipped
}

// pendFrame is an out-of-order data frame parked until the gap fills (held
// marks an occupied slot of the reorder ring), or a buffered beat.
type pendFrame struct {
	tag     int
	payload []byte
	held    bool
}

// unacked is one slot of a peer's send window: a frame on the wire that its
// receiver has not acknowledged yet.
type unacked struct {
	frame    []byte        // nil: the slot is free
	retries  int           // timed retransmissions so far
	fast     bool          // resent once already because an ack showed it lost
	timeout  time.Duration // the ack wait that ends at deadline; the next one backs off from it
	deadline time.Time     // fabric-clock instant the next retransmission is due
}

// reliable holds the protocol state of one communicator. State access is
// mutex-guarded (never across a wait) so helper goroutines (Irecv, Serving's,
// the farm worker's beats) stay safe, but the design point is the single
// owning goroutine of the Comm. Per-peer state is allocated once, with the
// communicator: a steady-state send allocates its frame and nothing else.
type reliable struct {
	c   *Comm
	cfg ReliableConfig
	// clk is the fabric's time source. Every protocol deadline — ack
	// timeouts, beat flushes — is computed and checked against it, so
	// timeout behavior follows simulated fabric time and tests can pin it
	// with an injected clock. Never call time.Now here.
	clk transport.Clock
	// rng draws retransmit-backoff jitter: seeded (JitterSeed ⊕ rank), so
	// a run replays identically while ranks desynchronize. Guarded by mu.
	rng *rand.Rand

	mu sync.Mutex
	// Send side. Peer dst's window is the sequence numbers [sendBase[dst],
	// nextSeq[dst]), at most sendWindow of them; seq's slot is
	// window[dst*sendWindow + seq%sendWindow], free again once acknowledged.
	nextSeq  []uint64  // per dst: next sequence number to assign
	sendBase []uint64  // per dst: oldest sequence number not yet acknowledged
	window   []unacked // per dst: sendWindow slots
	inflight int       // occupied slots over all peers
	lost     []int     // per dst: delivery attempts of a loss not yet reported (0: none)
	// Receive side. A frame from src ahead of expect[src] parks in
	// ahead[src*sendWindow + seq%sendWindow].
	expect []uint64            // per src: next in-order sequence expected
	ahead  []pendFrame         // per src: sendWindow slots
	owed   []bool              // per src: a data frame arrived since the last ack
	queue  []transport.Message // reassembled, tag-matchable deliveries
	stats  ReliableStats

	// Beats buffered for a fuller frame (none when cfg.DisableCoalesce).
	beats     [][]pendFrame // per dst: buffered fire-and-forget beats
	beatSince []time.Time   // per dst: fabric-clock time the oldest beat was buffered

	helping atomic.Bool   // the standing helper (Comm.Serving) pumps while set
	resume  chan struct{} // a token wakes the parked helper
	unserve func()        // stopServing, bound once
}

func newReliable(c *Comm, cfg ReliableConfig) *reliable {
	n := c.ep.Ranks()
	cfg = cfg.withDefaults()
	return &reliable{
		c:         c,
		cfg:       cfg,
		clk:       c.f.Clock(),
		rng:       rand.New(rand.NewSource(cfg.JitterSeed*0x9E3779B9 + int64(c.Rank())*0x85EBCA6B + 1)),
		nextSeq:   make([]uint64, n),
		sendBase:  make([]uint64, n),
		window:    make([]unacked, n*sendWindow),
		lost:      make([]int, n),
		expect:    make([]uint64, n),
		ahead:     make([]pendFrame, n*sendWindow),
		owed:      make([]bool, n),
		beats:     make([][]pendFrame, n),
		beatSince: make([]time.Time, n),
	}
}

var errMalformed = errors.New("mpi: malformed frame")

// walk reads the records of a frame body from src and, when apply is set,
// acts on each. It fails with errMalformed on an empty body or at the first
// structural violation: the CRC has already validated the bytes, so a
// violation means a broken encoder, but the protocol still treats it as
// corruption rather than decoding garbage. handleFrame walks a frame twice —
// whole without apply, then applying — so a malformed one is dropped before
// any of it counts. Only the payloads delivered or parked are allocated.
func (r *reliable) walk(src int, body []byte, apply bool) error {
	br := serial.NewReader(body)
	for br.Err() == nil && br.Remaining() > 0 {
		switch br.U8() {
		case subData:
			seq, tag, payload := br.U64(), br.Int(), br.View()
			if apply {
				if err := r.acceptData(src, seq, tag, payload); err != nil {
					return err
				}
			}
		case subAck:
			if expect, held := br.U64(), br.U8(); apply {
				if err := r.acked(src, expect, held); err != nil {
					return err
				}
			}
		case subBeat:
			// Beats bypass sequencing and deduplication entirely: deliver
			// as-is. They may be lost, duplicated, or overtake data — the
			// contract of SendBeat.
			if tag, payload := br.Int(), br.View(); apply {
				r.enqueue(src, tag, bytes.Clone(payload))
			}
		default:
			return errMalformed
		}
	}
	if br.Err() != nil || len(body) == 0 {
		return errMalformed
	}
	return nil
}

// pump drains every frame the fabric has for this rank without blocking and
// then serves the send windows. Data frames are verified, acknowledged,
// deduplicated, and reassembled into per-sender order; acks free their
// frame's window slot; unacknowledged frames past their deadline are
// retransmitted. The acknowledgements a pump collects are flushed before it
// returns — an ack held across application compute would read as loss to
// the sender and trigger retransmits of full data frames. Callers must hold
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
	if err := r.retransmit(); err != nil {
		return err
	}
	return r.flushPending()
}

// handleFrame processes one incoming wire frame. A corrupt or malformed one
// is dropped without an ack; the sender retransmits.
func (r *reliable) handleFrame(m transport.Message) error {
	body, valid := serial.VerifyCRC(m.Payload)
	if !valid || r.walk(m.Src, body, false) != nil {
		return r.dropCorrupt(len(m.Payload))
	}
	return r.walk(m.Src, body, true)
}

func (r *reliable) dropCorrupt(bytes int) error {
	r.stats.CorruptDropped++
	r.cfg.Tracer.Instant(r.c.Rank(), "net.corrupt-drop", int64(bytes))
	return nil
}

// acceptData runs the sequencing machinery for one data message. A frame
// sendWindow or more ahead of the expected one cannot have come from a
// conforming peer and is dropped like a corrupt one, unacknowledged. Every
// other valid message makes an ack owed to src — a duplicate usually means
// our last ack was lost — which the end-of-pump flush sends when coalescing,
// and which is sent at once otherwise. Only a kept payload is copied.
func (r *reliable) acceptData(src int, seq uint64, tag int, payload []byte) error {
	expect := r.expect[src]
	if seq >= expect+sendWindow {
		return r.dropCorrupt(len(payload))
	}
	ahead := r.ahead[src*sendWindow : (src+1)*sendWindow]
	switch slot := &ahead[seq%sendWindow]; {
	case seq == expect:
		r.enqueue(src, tag, bytes.Clone(payload))
		for expect++; ahead[expect%sendWindow].held; expect++ {
			pf := &ahead[expect%sendWindow]
			r.enqueue(src, pf.tag, pf.payload)
			*pf = pendFrame{}
		}
		r.expect[src] = expect
	case seq > expect && !slot.held:
		*slot = pendFrame{tag: tag, payload: bytes.Clone(payload), held: true}
	default: // already delivered, or already parked
		r.stats.DupDropped++
		r.cfg.Tracer.Instant(r.c.Rank(), "net.dup-drop", int64(len(payload)))
	}
	r.owed[src] = true
	if r.cfg.DisableCoalesce {
		return r.flushTo(src)
	}
	return nil
}

// ack writes the acknowledgement owed to src as its stream stands — the next
// in-order sequence number, and a map whose bit k says expect+k is parked —
// and settles the debt. Callers hold r.mu.
func (r *reliable) ack(w *serial.Writer, src int) {
	expect, held := r.expect[src], uint8(0)
	for k := uint64(1); k < sendWindow; k++ {
		if r.ahead[src*sendWindow+int((expect+k)%sendWindow)].held {
			held |= 1 << k
		}
	}
	w.U64(expect)
	w.U8(held)
	r.owed[src] = false
	r.stats.AcksSent++
}

// flushPending emits, per peer, any ack owed and any beat batch that is full
// or past its fabric-clock deadline. Callers hold r.mu.
func (r *reliable) flushPending() error {
	var now time.Time
	for dst, owed := range r.owed {
		beats := r.beats[dst]
		if !owed && len(beats) == 0 {
			continue
		}
		if !owed && len(beats) < r.cfg.CoalesceLimit {
			if now.IsZero() {
				now = r.clk.Now()
			}
			if now.Sub(r.beatSince[dst]) < coalesceDelay {
				continue // beats alone wait for a fuller frame
			}
		}
		if err := r.flushTo(dst); err != nil {
			return err
		}
	}
	return nil
}

// flushTo ships dst's owed ack and buffered beats now, in one frame. Callers
// hold r.mu.
func (r *reliable) flushTo(dst int) error {
	w := serial.NewWriter(r.pendingLen(dst))
	return r.ship(dst, tagRelAck, r.appendPending(w, dst, 0))
}

// pendingLen is how many bytes appendPending adds to a frame to dst — the
// owed ack, the buffered beats and the CRC — so that every frame is built in
// a buffer of exactly its size. Callers hold r.mu.
func (r *reliable) pendingLen(dst int) int {
	n := 4
	if r.owed[dst] {
		n += ackRecordLen
	}
	for _, b := range r.beats[dst] {
		n += 1 + 8 + 8 + len(b.payload)
	}
	return n
}

// appendPending completes a frame to dst of which w holds the first records
// (a data record, or none): it appends dst's owed ack and buffered beats,
// counts and clears them, and seals the frame with its CRC. Callers hold
// r.mu.
func (r *reliable) appendPending(w *serial.Writer, dst, records int) []byte {
	if r.owed[dst] {
		w.U8(subAck)
		r.ack(w, dst)
		records++
	}
	beats := r.beats[dst]
	for i, b := range beats {
		appendBeatSub(w, b)
		beats[i] = pendFrame{}
	}
	if records > 1 || len(beats) > 0 {
		r.stats.CoalescedFrames++
	}
	r.stats.BeatsSent += int64(len(beats))
	r.beats[dst] = beats[:0]
	r.beatSince[dst] = time.Time{}
	w.FinishCRC()
	return w.Bytes()
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

// idle blocks like Endpoint.Wait, but no later than the layer has something to
// do with nothing arriving: flush a beat batch come due (coalesceDelay) or
// retransmit a frame. Both join the caller's deadline in one Wait on the
// mailbox timer, so a retransmission due within a host tick waits for the
// tick: the idle rank sleeps, leaving the CPU to the ranks that compute.
func (r *reliable) idle(ctx context.Context, since transport.Gen, deadline time.Time) transport.WaitReason {
	r.mu.Lock()
	for dst, beats := range r.beats {
		if len(beats) > 0 {
			deadline = transport.Sooner(deadline, r.beatSince[dst].Add(coalesceDelay))
		}
	}
	var resend time.Time
	if r.inflight > 0 {
		for i := range r.window {
			if r.window[i].frame != nil {
				resend = transport.Sooner(resend, r.window[i].deadline)
			}
		}
	}
	r.mu.Unlock()
	return r.c.ep.Wait(ctx, since, transport.Sooner(deadline, resend))
}

// serve pumps the endpoint until ready, checked under r.mu before and after
// each pump, reports true; the pump fails; or ctx ends. Between pumps it
// idles on the mailbox, where an arrival, a local enqueue, a peer's crash or
// a cancelled ctx ends the wait at once. The generation is read before the
// pump: a frame landing after it has moved the generation, so idle cannot
// sleep through that frame.
func (r *reliable) serve(ctx context.Context, ready func() bool) error {
	for {
		gen := r.c.ep.Gen()
		r.mu.Lock()
		ok := ready()
		var err error
		if !ok {
			if err = r.pump(); err == nil {
				ok = ready()
			}
		}
		r.mu.Unlock()
		switch {
		case ok:
			return nil
		case err != nil:
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		}
		r.idle(ctx, gen, time.Time{})
	}
}

// serving switches the standing helper on and returns its off switch. Only the
// first call starts a goroutine, the helper: it serves while helping is set,
// parks on resume while not, and ends with ctx. Nothing joins it.
func (r *reliable) serving() func() {
	r.helping.Store(true)
	if r.resume == nil {
		r.resume = make(chan struct{}, 1)
		r.unserve = r.stopServing
		go func(ctx context.Context) {
			for {
				select {
				case <-r.resume:
					r.serve(ctx, func() bool { return !r.helping.Load() })
				case <-ctx.Done():
					return
				}
			}
		}(r.c.Context())
	}
	select {
	case r.resume <- struct{}{}:
	default: // a token is waiting already
	}
	return r.unserve
}

// stopServing switches the helper off without a join; Wake ends its idle.
func (r *reliable) stopServing() { r.helping.Store(false); r.c.ep.Wake() }

// ship puts one frame on the wire. The fabric swallows traffic to a crashed
// rank, but refuses a frame whose receiver dies under it; to this layer both
// are the same loss, which the window finds out on its own.
func (r *reliable) ship(dst, wireTag int, frame []byte) error {
	err := r.c.ep.SendShared(dst, wireTag, frame)
	if err != nil && r.c.f.Crashed(dst) && !r.c.f.Crashed(r.c.Rank()) {
		return nil
	}
	return err
}

// slot is the window slot of dst's frame seq. Callers hold r.mu.
func (r *reliable) slot(dst int, seq uint64) *unacked {
	return &r.window[dst*sendWindow+int(seq%sendWindow)]
}

// release frees the window slot of dst's frame seq if it is in use. Callers
// hold r.mu.
func (r *reliable) release(dst int, seq uint64) {
	if u := r.slot(dst, seq); u.frame != nil {
		*u = unacked{}
		r.inflight--
	}
}

// acked applies a cumulative acknowledgement from dst: every frame below
// expect has arrived, and so has expect+k for each bit k of held, so their
// slots are freed. A frame below the highest one named that has not arrived
// was lost — the fabric is FIFO between two ranks — and is resent at once,
// its deadline re-armed: fast retransmit, once per frame and outside the
// retry budget, which only the deadline spends. An ack older than one
// already applied (expect below sendBase; also every ack of frames given up
// on) or past what was sent has nothing to say and leaves no trace. Callers
// hold r.mu.
func (r *reliable) acked(dst int, expect uint64, held uint8) error {
	next := r.nextSeq[dst]
	if expect < r.sendBase[dst] || expect > next {
		return nil
	}
	for seq := r.sendBase[dst]; seq < expect; seq++ {
		r.release(dst, seq)
	}
	r.sendBase[dst] = expect
	held &^= 1 // bit 0 would name expect itself, which the receiver lacks
	for seq := expect; seq < next && held>>(seq-expect) != 0; seq++ {
		if u := r.slot(dst, seq); held&(1<<(seq-expect)) != 0 {
			r.release(dst, seq)
		} else if u.frame != nil && !u.fast {
			u.fast = true
			if err := r.resend(dst, u, r.clk.Now(), "net.fast-retry"); err != nil {
				return err
			}
		}
	}
	return nil
}

// ackWait is the first ack timeout of an n-byte frame: AckTimeout, floored
// above the simulated round trip. With a wire delay attached to the fabric the
// frame and its ack each spend WireDelay on the wire; a fixed 5ms default
// under a 20ms simulated latency would time out every first attempt. High
// latency must read as latency, not as loss.
func (r *reliable) ackWait(n int) time.Duration {
	rtt := r.c.f.WireDelay(n) + r.c.f.WireDelay(ackFrameLen)
	return max(r.cfg.AckTimeout, 2*rtt)
}

// retransmit serves the send windows: every frame whose ack deadline has
// passed goes out again, its timeout backed off (up to MaxAckTimeout, or the
// wire-delay floor where that is higher) and jittered afresh. Only that frame:
// later ones its receiver holds were released by the ack's map. A peer the
// fabric reports crashed, or a frame of whose has used up the retry budget,
// is given up on. Callers hold r.mu.
func (r *reliable) retransmit() error {
	if r.inflight == 0 {
		return nil
	}
	now := r.clk.Now()
	for dst := range r.nextSeq {
		if r.sendBase[dst] < r.nextSeq[dst] && r.c.f.Crashed(dst) {
			r.giveUp(dst, r.slot(dst, r.sendBase[dst]).retries+1)
		}
		for seq := r.sendBase[dst]; seq < r.nextSeq[dst]; seq++ {
			u := r.slot(dst, seq)
			if u.frame == nil || now.Before(u.deadline) {
				continue
			}
			if u.retries == r.cfg.Retries {
				r.giveUp(dst, u.retries+1)
				break
			}
			u.retries++
			u.timeout = min(time.Duration(float64(u.timeout)*ackBackoff),
				max(r.cfg.MaxAckTimeout, r.ackWait(len(u.frame))))
			if err := r.resend(dst, u, now, "net.retry"); err != nil {
				return err
			}
		}
	}
	return nil
}

// resend puts u's frame on the wire again, recording event, and re-arms its
// deadline one timeout from now. Callers hold r.mu.
func (r *reliable) resend(dst int, u *unacked, now time.Time, event string) error {
	r.stats.Retries++
	r.cfg.Tracer.Instant(r.c.Rank(), event, int64(len(u.frame)))
	u.deadline = now.Add(r.jitter(u.timeout))
	if err := r.ship(dst, tagRelData, u.frame); err != nil {
		return err
	}
	r.stats.FramesSent++
	return nil
}

// giveUp declares dst lost after attempts deliveries of one frame: its window
// is abandoned (a peer that was only slow will never see past that gap in its
// stream) and the loss waits in r.lost for the call that reports it. Callers
// hold r.mu.
func (r *reliable) giveUp(dst, attempts int) {
	for seq := r.sendBase[dst]; seq < r.nextSeq[dst]; seq++ {
		r.release(dst, seq)
	}
	r.sendBase[dst] = r.nextSeq[dst]
	r.lost[dst] = attempts
}

// takeLoss returns, and marks reported, one unreported loss among the peers
// src names (AnySource: all of them); nil when there is none. Callers hold
// r.mu.
func (r *reliable) takeLoss(src int) *RankLostError {
	for dst, attempts := range r.lost {
		if attempts != 0 && (src == dst || src == transport.AnySource) {
			r.lost[dst] = 0
			return &RankLostError{Rank: dst, Attempts: attempts}
		}
	}
	return nil
}

// send transmits one message and returns with it on the wire and in dst's
// window: the buffered semantics of direct mode. It blocks only while that
// window is full, serving incoming frames meanwhile, so two ranks that fill
// their windows at each other both drain. A RankLostError says dst is crashed
// (nothing is sent) or that frames sent to it earlier were given up on; this
// message is then carried like any other, with a retry budget of its own, so
// a peer written off while it was only paused still hears what it is told.
//
// The message is head followed by payload (see Comm.SendHead): the data frame
// is built from both, so neither is copied but into it. shared marks a payload
// the caller has relinquished (see Comm.SendShared): local delivery of a
// headless message then skips its defensive copy. Wire frames are always
// shipped with transport.SendShared — the frame buffer belongs to this
// layer, is never mutated after encoding, and retransmits resend the same
// bytes, so the fabric's defensive copy would buy nothing.
func (r *reliable) send(ctx context.Context, dst, tag int, head, payload []byte, shared bool) error {
	if dst == r.c.Rank() {
		// Local delivery: no wire, no frames.
		if !shared || len(head) > 0 {
			payload = slices.Concat(head, payload)
		}
		r.enqueueLocal(tag, payload)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.c.f.Crashed(dst) {
		return &RankLostError{Rank: dst}
	}
	r.mu.Lock()
	for r.nextSeq[dst]-r.sendBase[dst] == sendWindow {
		r.mu.Unlock()
		if err := r.serve(ctx, func() bool { return r.nextSeq[dst]-r.sendBase[dst] < sendWindow }); err != nil {
			return err
		}
		r.mu.Lock()
	}
	defer r.mu.Unlock()
	seq := r.nextSeq[dst]
	r.nextSeq[dst]++
	u := r.slot(dst, seq)
	u.frame = r.buildDataFrame(dst, seq, tag, head, payload)
	u.timeout = r.ackWait(len(u.frame))
	u.deadline = r.clk.Now().Add(r.jitter(u.timeout))
	r.inflight++
	r.stats.FramesSent++
	if err := r.ship(dst, tagRelData, u.frame); err != nil {
		return err
	}
	if e := r.takeLoss(dst); e != nil {
		return e
	}
	return nil
}

// jitter stretches one ack timeout by a seeded random fraction in
// [0, BackoffJitter). Strictly additive: the result is never below d, so the
// round-trip floor of ackWait holds for every attempt. The draw is the only
// randomness in the protocol and comes from the per-rank seeded stream,
// keeping runs replayable. Callers hold r.mu.
func (r *reliable) jitter(d time.Duration) time.Duration {
	if r.cfg.BackoffJitter <= 0 {
		return d
	}
	return d + time.Duration(float64(d)*r.cfg.BackoffJitter*r.rng.Float64())
}

// buildDataFrame encodes one data message — head then payload, one
// length-prefixed body — followed by dst's owed ack and buffered beats when
// there are any: they ride for free on a frame that is going to that peer
// anyway. A retransmit resends them too; an old cumulative ack says nothing
// new and beats tolerate duplication by contract. Callers hold r.mu.
func (r *reliable) buildDataFrame(dst int, seq uint64, tag int, head, payload []byte) []byte {
	w := serial.NewWriter(1 + 8 + 8 + 8 + len(head) + len(payload) + r.pendingLen(dst))
	w.U8(subData)
	w.U64(seq)
	w.Int(tag)
	w.Int(len(head) + len(payload))
	w.Append(head)
	w.Append(payload)
	return r.appendPending(w, dst, 1)
}

// sendBeat queues one fire-and-forget beat for dst. Beats are unsequenced
// and unacknowledged: they may be lost, duplicated (a retransmitted data
// frame re-carries its piggybacked beats), delayed up to coalesceDelay, or
// overtake sequenced data — suitable only for idempotent liveness signals
// like the farm's heartbeats. A full batch (CoalesceLimit) or an expired
// fabric-clock deadline (coalesceDelay) flushes the buffer; a data frame
// to the same peer carries pending beats for free. With coalescing
// disabled a beat is an ordinary acknowledged send.
func (r *reliable) sendBeat(dst, tag int, payload []byte) error {
	rank := r.c.Rank()
	if dst == rank {
		r.enqueueLocal(tag, append([]byte(nil), payload...))
		return nil
	}
	if r.cfg.DisableCoalesce {
		return r.send(context.Background(), dst, tag, nil, payload, false)
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
		r.clk.Now().Sub(r.beatSince[dst]) >= coalesceDelay {
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

// recv blocks until a reassembled delivery matches (src, tag). It fails with
// RankLostError when the fabric reports a specific source crashed, or when a
// peer it could be waiting on (src; any with AnySource) was given up on —
// once per loss: a later receive waits again, as a worker must whose master
// was only slow. ctx bounds the wait.
func (r *reliable) recv(ctx context.Context, src, tag int) (m transport.Message, err error) {
	var lost *RankLostError
	err = r.serve(ctx, func() (ok bool) {
		if m, ok = r.match(src, tag); ok {
			return true
		}
		if src != transport.AnySource && src != r.c.Rank() && r.c.f.Crashed(src) {
			lost = &RankLostError{Rank: src}
		} else {
			lost = r.takeLoss(src)
		}
		return lost != nil
	})
	if lost != nil {
		err = lost
	}
	return m, err
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
