// Package transport implements the virtual cluster's network fabric: the
// only channel through which simulated nodes may communicate. Messages are
// byte payloads (produced by internal/serial) addressed by (rank, tag) with
// MPI-style matching semantics. The fabric copies every payload, so nodes
// cannot share memory through it — preserving the distributed-memory
// discipline the paper's runtime is built around even though all ranks run
// in one OS process. SendShared is the explicit, metered exception: a
// sender that promises never to mutate a buffer again may ship it by
// reference (the zero-copy path for serial.Raw payloads and protocol
// frames), and fault injection copies before corrupting so the promise
// survives a hostile wire.
//
// The fabric also meters traffic (message and byte counts per rank) and
// supports a configurable maximum message size, which the Eden baseline
// uses to reproduce the paper's §4.3 failure: "the array data is too large
// for Eden's message-passing runtime to buffer".
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// AnySource matches a message from any sender in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// ErrClosed is reported by operations on a closed fabric.
var ErrClosed = errors.New("transport: fabric closed")

// ErrMessageTooLarge is reported when a payload exceeds the fabric's
// configured maximum message size.
var ErrMessageTooLarge = errors.New("transport: message exceeds buffer limit")

// ErrCrashed is reported by operations at a rank that fault injection has
// killed (see FaultConfig.Crashes and Fabric.CrashRank): the simulated
// process is dead, so its own sends and receives fail immediately, while
// peers observe only silence.
var ErrCrashed = errors.New("transport: rank crashed")

// Config describes a fabric.
type Config struct {
	// Ranks is the number of endpoints (cluster nodes).
	Ranks int
	// MaxMessageBytes caps individual payload size; 0 means unlimited.
	// The paper's Eden runtime has a finite buffer; setting this models it.
	MaxMessageBytes int
	// Delay, when non-nil, holds every message for latency + size/bandwidth
	// before it becomes receivable (see DelayConfig), so real executions
	// exhibit genuine communication time rather than instant delivery.
	Delay *DelayConfig
	// Fault, when non-nil, enables deterministic fault injection: seeded
	// drop/duplicate/reorder/corrupt/delay probabilities per link plus
	// per-rank pause and crash schedules (see FaultConfig).
	Fault *FaultConfig
	// Clock, when non-nil, replaces the system clock as the fabric's time
	// source (see Clock). Protocol deadlines computed against the fabric —
	// the reliable layer's ack and receive timeouts — follow it.
	Clock Clock
}

// Message is one delivered payload.
type Message struct {
	Src, Tag int
	Payload  []byte
}

type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message
	closed  bool
	crashed bool

	// Wait-primitive state (wait.go).
	arrivals uint64      // deliveries so far
	wakes    uint64      // explicit Wake calls so far
	watched  []ctxWatch  // contexts whose cancellation broadcasts here
	timer    *time.Timer // the rank's one deadline timer, created on first use
	armedAt  time.Time   // fabric-clock instant the timer is set for; zero once fired
}

// take removes and returns the earliest queued message matching (src, tag).
// Callers hold mu.
func (mb *mailbox) take(src, tag int) (Message, bool) {
	for i, m := range mb.queue {
		if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}

// closeErr reports why a closed mailbox rejects operations. Callers hold mu.
func (mb *mailbox) closeErr() error {
	if mb.crashed {
		return ErrCrashed
	}
	return ErrClosed
}

// Stats are cumulative traffic counters, readable while the fabric runs.
type Stats struct {
	Messages  int64
	Bytes     int64
	SentBytes []int64 // per source rank
	RecvBytes []int64 // per destination rank
	// HaloBytes is the subset of payload bytes a sender attributed to
	// halo/ghost replication (stencil ghost rows, slab boundary-atom
	// duplication). The fabric cannot tell halo traffic from task traffic
	// on its own, so attribution is explicit: senders call AddHaloBytes
	// alongside the send. Counted once per logical payload — reliable-mode
	// retries are delivery overhead, not additional halo volume.
	HaloBytes int64
	// Faults counts injected faults; all-zero without a FaultConfig.
	Faults FaultStats
}

// Fabric connects Ranks endpoints. All methods are safe for concurrent use.
type Fabric struct {
	cfg       Config
	boxes     []*mailbox
	delay     *delayer
	faults    *injector
	crashed   []atomic.Bool
	messages  atomic.Int64
	bytes     atomic.Int64
	haloBytes atomic.Int64
	sentBytes []atomic.Int64
	recvBytes []atomic.Int64
}

// New creates a fabric with the given configuration.
func New(cfg Config) *Fabric {
	if cfg.Ranks <= 0 {
		panic(fmt.Sprintf("transport: %d ranks", cfg.Ranks))
	}
	f := &Fabric{
		cfg:       cfg,
		boxes:     make([]*mailbox, cfg.Ranks),
		crashed:   make([]atomic.Bool, cfg.Ranks),
		sentBytes: make([]atomic.Int64, cfg.Ranks),
		recvBytes: make([]atomic.Int64, cfg.Ranks),
	}
	for i := range f.boxes {
		mb := &mailbox{}
		mb.cond = sync.NewCond(&mb.mu)
		f.boxes[i] = mb
	}
	if cfg.Delay != nil {
		f.delay = newDelayer(*cfg.Delay, f)
	}
	if cfg.Fault != nil {
		f.faults = newInjector(*cfg.Fault, f)
	}
	return f
}

// Ranks reports the number of endpoints.
func (f *Fabric) Ranks() int { return f.cfg.Ranks }

// SendCtx is Send under a context: an already-cancelled context fails the
// send with ctx.Err() before anything is transmitted. Send itself never
// blocks (the fabric buffers), so there is no mid-send wait to interrupt.
func (f *Fabric) SendCtx(ctx context.Context, src, dst, tag int, payload []byte) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return f.Send(src, dst, tag, payload)
}

// Send delivers payload to dst with the given tag. The payload is copied;
// the caller may reuse its buffer immediately. Send does not block (the
// fabric buffers), matching MPI's buffered-send semantics that the paper's
// runtime relies on; flow control is the application's concern.
func (f *Fabric) Send(src, dst, tag int, payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return f.sendPayload(src, dst, tag, cp, false)
}

// SendShared is the zero-copy variant of Send: the payload is delivered
// by reference, skipping the fabric's defensive copy, while traffic is
// metered exactly as Send meters it — the bytes-on-the-wire accounting
// does not change. The caller relinquishes the buffer: it must not mutate
// payload after the call, and the receiver must treat the delivered
// payload as read-only unless it knows it is the sole owner. Under fault
// injection a corrupting link copies the payload before flipping a bit, so
// a shared buffer is never damaged in place (copy-on-corrupt).
func (f *Fabric) SendShared(src, dst, tag int, payload []byte) error {
	return f.sendPayload(src, dst, tag, payload, true)
}

// sendPayload validates, meters, and routes one send whose payload the
// fabric now owns (copied) or shares by contract (shared=true).
func (f *Fabric) sendPayload(src, dst, tag int, payload []byte, shared bool) error {
	if src < 0 || src >= f.cfg.Ranks || dst < 0 || dst >= f.cfg.Ranks {
		return fmt.Errorf("transport: send %d→%d out of range", src, dst)
	}
	if f.crashed[src].Load() {
		return ErrCrashed
	}
	if f.cfg.MaxMessageBytes > 0 && len(payload) > f.cfg.MaxMessageBytes {
		return fmt.Errorf("%w: %d bytes > limit %d", ErrMessageTooLarge, len(payload), f.cfg.MaxMessageBytes)
	}

	f.messages.Add(1)
	f.bytes.Add(int64(len(payload)))
	f.sentBytes[src].Add(int64(len(payload)))
	f.recvBytes[dst].Add(int64(len(payload)))

	if f.faults != nil {
		pl, handled, err := f.faults.apply(src, dst, tag, payload, shared)
		if handled {
			return err
		}
		payload = pl
	}
	return f.route(src, dst, tag, payload)
}

// route forwards an already-copied, already-metered payload through the
// configured wire-delay simulator, or delivers it directly.
func (f *Fabric) route(src, dst, tag int, payload []byte) error {
	if f.delay != nil {
		// Fail fast on an already-closed fabric so delayed sends report
		// the close error like direct sends do; a close racing the
		// delivery still drops the message at deliver time.
		mb := f.boxes[dst]
		mb.mu.Lock()
		closed := mb.closed
		err := mb.closeErr()
		mb.mu.Unlock()
		if closed {
			return err
		}
		f.delay.submit(src, dst, tag, payload)
		return nil
	}
	return f.deliver(src, dst, tag, payload)
}

// deliver places an already-copied, already-metered payload into dst's
// mailbox. Delayed deliveries to a closed fabric are dropped.
func (f *Fabric) deliver(src, dst, tag int, payload []byte) error {
	mb := f.boxes[dst]
	mb.mu.Lock()
	if mb.closed {
		err := mb.closeErr()
		mb.mu.Unlock()
		return err
	}
	mb.queue = append(mb.queue, Message{Src: src, Tag: tag, Payload: payload})
	mb.arrivals++
	mb.cond.Broadcast()
	mb.mu.Unlock()
	return nil
}

// Recv blocks until a message matching (src, tag) arrives at dst and
// returns it. src may be AnySource and tag may be AnyTag. Matching picks
// the earliest queued message, so messages between one (src, dst, tag)
// triple are received in send order (MPI's non-overtaking rule).
func (f *Fabric) Recv(dst, src, tag int) (Message, error) {
	return f.RecvCtx(context.Background(), dst, src, tag)
}

// RecvCtx is Recv under a context: cancelling ctx unblocks the wait and
// returns ctx.Err(). An already-queued matching message is returned even
// when ctx is cancelled, so cancellation never loses a delivered message.
func (f *Fabric) RecvCtx(ctx context.Context, dst, src, tag int) (Message, error) {
	if dst < 0 || dst >= f.cfg.Ranks {
		return Message{}, fmt.Errorf("transport: recv at rank %d out of range", dst)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	mb := f.boxes[dst]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if m, ok := mb.take(src, tag); ok {
			return m, nil
		}
		if mb.closed {
			return Message{}, mb.closeErr()
		}
		if err := ctx.Err(); err != nil {
			return Message{}, err
		}
		mb.watch(ctx) // cancellation wakes the cond wait, as it does Wait's
		mb.cond.Wait()
	}
}

// TryRecv is the non-blocking variant of Recv. ok is false when no matching
// message is queued.
func (f *Fabric) TryRecv(dst, src, tag int) (Message, bool, error) {
	if dst < 0 || dst >= f.cfg.Ranks {
		return Message{}, false, fmt.Errorf("transport: recv at rank %d out of range", dst)
	}
	mb := f.boxes[dst]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if m, ok := mb.take(src, tag); ok {
		return m, true, nil
	}
	if mb.closed {
		return Message{}, false, mb.closeErr()
	}
	return Message{}, false, nil
}

// Close shuts the fabric down: pending and future Recvs return ErrClosed.
func (f *Fabric) Close() {
	for _, mb := range f.boxes {
		mb.mu.Lock()
		mb.shut(false)
		mb.mu.Unlock()
	}
}

// CrashRank kills rank r: its mailbox closes with ErrCrashed (unblocking
// any receive it has pending), its own future sends fail with ErrCrashed,
// and — under fault injection — traffic addressed to it is silently lost.
// Idempotent. Simulates a process death mid-run.
func (f *Fabric) CrashRank(r int) {
	if r < 0 || r >= f.cfg.Ranks {
		return
	}
	if f.crashed[r].Swap(true) {
		return
	}
	mb := f.boxes[r]
	mb.mu.Lock()
	mb.shut(true)
	mb.mu.Unlock()
	// Peers idle on their own mailboxes: wake them so a loop waiting on the
	// dead rank re-reads Crashed now, not at its next deadline.
	for peer := range f.boxes {
		if peer != r {
			f.Endpoint(peer).Wake()
		}
	}
}

// Crashed reports whether rank r has been killed. The retry/ack layer uses
// this as its failure detector once acknowledgements stop arriving.
func (f *Fabric) Crashed(r int) bool {
	return r >= 0 && r < f.cfg.Ranks && f.crashed[r].Load()
}

// Stats returns a snapshot of cumulative traffic counters.
func (f *Fabric) Stats() Stats {
	s := Stats{
		Messages:  f.messages.Load(),
		Bytes:     f.bytes.Load(),
		HaloBytes: f.haloBytes.Load(),
		SentBytes: make([]int64, f.cfg.Ranks),
		RecvBytes: make([]int64, f.cfg.Ranks),
	}
	if f.faults != nil {
		s.Faults = f.faults.snapshot()
	}
	for i := range s.SentBytes {
		s.SentBytes[i] = f.sentBytes[i].Load()
		s.RecvBytes[i] = f.recvBytes[i].Load()
	}
	return s
}

// ResetStats zeroes the traffic counters (between experiment phases).
func (f *Fabric) ResetStats() {
	f.messages.Store(0)
	f.bytes.Store(0)
	f.haloBytes.Store(0)
	for i := range f.sentBytes {
		f.sentBytes[i].Store(0)
		f.recvBytes[i].Store(0)
	}
}

// AddHaloBytes attributes n payload bytes to halo/ghost replication (see
// Stats.HaloBytes). Callers invoke it once per logical halo payload, next to
// the send (or, for farm tasks that may run on the master without crossing
// the fabric, at task-build time — provisioned halo volume).
func (f *Fabric) AddHaloBytes(n int64) {
	if n > 0 {
		f.haloBytes.Add(n)
	}
}

// Endpoint binds a rank to the fabric for convenience.
type Endpoint struct {
	f    *Fabric
	rank int
}

// Endpoint returns rank's bound endpoint.
func (f *Fabric) Endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= f.cfg.Ranks {
		panic(fmt.Sprintf("transport: endpoint rank %d out of range", rank))
	}
	return &Endpoint{f: f, rank: rank}
}

// Rank reports the endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Ranks reports the fabric size.
func (e *Endpoint) Ranks() int { return e.f.Ranks() }

// Send delivers payload to dst with the given tag.
func (e *Endpoint) Send(dst, tag int, payload []byte) error {
	return e.f.Send(e.rank, dst, tag, payload)
}

// SendShared delivers payload to dst without the fabric's defensive copy
// (see Fabric.SendShared for the aliasing contract).
func (e *Endpoint) SendShared(dst, tag int, payload []byte) error {
	return e.f.SendShared(e.rank, dst, tag, payload)
}

// SendCtx is Send under a context (see Fabric.SendCtx).
func (e *Endpoint) SendCtx(ctx context.Context, dst, tag int, payload []byte) error {
	return e.f.SendCtx(ctx, e.rank, dst, tag, payload)
}

// Recv blocks for a matching message addressed to this endpoint.
func (e *Endpoint) Recv(src, tag int) (Message, error) {
	return e.f.Recv(e.rank, src, tag)
}

// RecvCtx is Recv under a context: cancellation unblocks the wait.
func (e *Endpoint) RecvCtx(ctx context.Context, src, tag int) (Message, error) {
	return e.f.RecvCtx(ctx, e.rank, src, tag)
}

// TryRecv is the non-blocking receive at this endpoint.
func (e *Endpoint) TryRecv(src, tag int) (Message, bool, error) {
	return e.f.TryRecv(e.rank, src, tag)
}
