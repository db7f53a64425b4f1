// Package mpi layers MPI-style collectives over the transport fabric: the
// distributed communication layer of the virtual cluster (the paper's
// runtime uses OpenMPI, §4). Point-to-point operations are thin wrappers;
// collectives (Barrier, Bcast, Scatter, Gather, Reduce, Allreduce) use
// binomial trees, so their message counts scale as they would on a real
// cluster and the metered traffic feeding the performance model is honest.
//
// SPMD discipline: every rank must call the same sequence of collectives.
// A per-communicator sequence number keyed into the message tag keeps
// concurrent collectives from interfering, and mismatched sequences fail
// loudly rather than deadlock silently.
package mpi

import (
	"context"
	"fmt"
	"slices"
	"time"

	"triolet/internal/transport"
)

// Tag bases: user point-to-point tags must stay below tagCollective.
const (
	tagCollective = 1 << 20
	// MaxUserTag is the largest tag usable with Send/Recv.
	MaxUserTag = tagCollective - 1
)

// Comm binds one rank to a fabric and carries collective sequencing state.
// A Comm is owned by a single goroutine (the node's control loop), like an
// MPI communicator handle is owned by a process.
type Comm struct {
	ep  *transport.Endpoint
	f   *transport.Fabric
	seq int
	rel *reliable
	ctx context.Context
}

// NewComm returns rank's communicator over f. Delivery is direct: the
// fabric is trusted to be lossless, matching the paper's MPI assumption.
func NewComm(f *transport.Fabric, rank int) *Comm {
	return &Comm{ep: f.Endpoint(rank), f: f}
}

// NewReliableComm returns rank's communicator in acknowledged-delivery
// mode: every point-to-point message (including the ones inside
// collectives) is framed with a sequence number and checksum, acknowledged
// by the receiver, retried with backoff on timeout, deduplicated, and
// re-ordered back into per-sender sequence — so the communicator survives
// a fabric that drops, duplicates, reorders, or corrupts messages (see
// transport.FaultConfig). Sends are buffered, as in direct mode: they return
// with the frame on the wire, and the communicator's later calls (any
// receive, Flush) see it through. A peer that stops acknowledging is
// declared lost with a RankLostError instead of anything blocking forever.
func NewReliableComm(f *transport.Fabric, rank int, cfg ReliableConfig) *Comm {
	c := &Comm{ep: f.Endpoint(rank), f: f}
	c.rel = newReliable(c, cfg)
	return c
}

// ReliableEnabled reports whether this communicator runs in
// acknowledged-delivery mode.
func (c *Comm) ReliableEnabled() bool { return c.rel != nil }

// SetContext attaches a base context to the communicator: every blocking
// operation (point-to-point and the sends/receives inside collectives)
// observes its cancellation and returns ctx.Err() promptly instead of
// blocking forever. The cluster runtime sets each rank's context from the
// job's, so cancelling a job unwinds every rank. Call before the
// communicator is in use; a nil or absent context means Background (block
// forever, the paper's MPI semantics).
func (c *Comm) SetContext(ctx context.Context) { c.ctx = ctx }

// Context returns the communicator's base context (Background when unset).
func (c *Comm) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// send is the internal point-to-point send every operation (user sends and
// collectives) routes through; it applies the ack/retry protocol when
// reliable mode is on. The message is head followed by payload, where head is
// a header the caller sends apart from the payload it precedes (SendHead), nil
// for none. shared marks a payload the caller has relinquished: the fabric
// skips its defensive copy (see transport.Fabric.SendShared) and reliable
// local delivery skips its own. The caller must not mutate a shared payload
// after the call; in direct mode the receiver aliases it and must treat it as
// read-only.
func (c *Comm) send(ctx context.Context, dst, tag int, head, payload []byte, shared bool) error {
	if c.rel != nil {
		return c.rel.send(ctx, dst, tag, head, payload, shared)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(head) > 0 {
		// The message, built once, takes the place of the fabric's copy.
		payload, shared = slices.Concat(head, payload), true
	}
	if shared {
		return c.ep.SendShared(dst, tag, payload)
	}
	return c.ep.Send(dst, tag, payload)
}

// recvMsg is the matching internal receive.
func (c *Comm) recvMsg(ctx context.Context, src, tag int) (transport.Message, error) {
	if c.rel != nil {
		return c.rel.recv(ctx, src, tag)
	}
	return c.ep.RecvCtx(ctx, src, tag)
}

// tryRecvMsg is the non-blocking internal receive.
func (c *Comm) tryRecvMsg(src, tag int) (transport.Message, bool, error) {
	if c.rel != nil {
		return c.rel.tryRecv(src, tag)
	}
	return c.ep.TryRecv(src, tag)
}

// Flush blocks until every frame this communicator has sent is acknowledged
// or its peer given up on, and returns TakeLost. Reliable sends are buffered;
// a rank calls Flush where it must know they arrived: before it reports a
// dispatch done, before it stops calling into the communicator for good. A
// no-op in direct mode.
func (c *Comm) Flush(ctx context.Context) (lost []int, err error) {
	if c.rel == nil {
		return nil, nil
	}
	err = c.rel.serve(ctx, func() bool { return c.rel.inflight == 0 })
	return c.TakeLost(), err
}

// TakeLost returns the peers the reliable layer has given up on (see
// RankLostError) whose loss no call has reported yet, and marks them
// reported. A loop that only ever polls — the farm master — learns of them
// here.
func (c *Comm) TakeLost() (lost []int) {
	if c.rel == nil {
		return nil
	}
	c.rel.mu.Lock()
	defer c.rel.mu.Unlock()
	for e := c.rel.takeLoss(transport.AnySource); e != nil; e = c.rel.takeLoss(transport.AnySource) {
		lost = append(lost, e.Rank)
	}
	return lost
}

// Idle is the endpoint's Wait(ctx, since, deadline) for a loop that idles on
// the mailbox itself, not in a blocking receive: in reliable mode the wait
// also ends when a frame is due for retransmission or a beat batch for its
// flush, which the loop's next TryRecv performs. Those deadlines share the
// mailbox timer with the caller's, so the loop sleeps toward them.
func (c *Comm) Idle(ctx context.Context, since transport.Gen, deadline time.Time) transport.WaitReason {
	if c.rel == nil {
		return c.ep.Wait(ctx, since, deadline)
	}
	return c.rel.idle(ctx, since, deadline)
}

// Serving switches on the communicator's standing helper, which keeps the
// reliable layer answering peers while the owner computes (acknowledging,
// queueing, retransmitting; losses wait for the owner), so a peer does not take
// a long computation for a dead rank, and returns its off switch. Direct: no-op.
func (c *Comm) Serving() (stop func()) {
	if c.rel == nil {
		return func() {}
	}
	return c.rel.serving()
}

// Rank reports this communicator's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size reports the number of ranks.
func (c *Comm) Size() int { return c.ep.Ranks() }

// Send delivers payload to dst with a user tag.
func (c *Comm) Send(dst, tag int, payload []byte) error {
	return c.SendCtx(c.Context(), dst, tag, payload)
}

// SendCtx is Send under an explicit context: a send blocked on a full
// reliable window gives up with ctx.Err() when it is cancelled.
func (c *Comm) SendCtx(ctx context.Context, dst, tag int, payload []byte) error {
	return c.SendHead(ctx, dst, tag, nil, payload)
}

// SendHead is SendCtx of head followed by payload — the receiver gets one
// message, their concatenation — without building it: in reliable mode both
// are written straight into the frame the layer builds anyway, and direct
// mode builds the message once, in place of the fabric's defensive copy. A
// protocol header in front of a payload (the farm's task and result frames)
// so costs no copy of the payload. Both buffers stay the caller's.
func (c *Comm) SendHead(ctx context.Context, dst, tag int, head, payload []byte) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return c.send(ctx, dst, tag, head, payload, false)
}

// SendHalo is Send with halo attribution: the payload bytes are additionally
// counted in the fabric's Stats.HaloBytes, so ghost-row and boundary-
// replication traffic is separable from task traffic in the wire pins.
// Attribution is once per logical payload; reliable-mode retries do not
// inflate it.
func (c *Comm) SendHalo(dst, tag int, payload []byte) error {
	c.f.AddHaloBytes(int64(len(payload)))
	return c.Send(dst, tag, payload)
}

// SendShared delivers payload to dst by reference: the zero-copy path for
// buffers the sender will never touch again (serial.Raw views of backing
// arrays, freshly marshalled codec output). Traffic is metered exactly
// like Send. The caller must not mutate payload after the call; in direct
// mode the receiver aliases the sender's buffer and must treat it as
// read-only.
func (c *Comm) SendShared(dst, tag int, payload []byte) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	return c.send(c.Context(), dst, tag, nil, payload, true)
}

// SendBeat delivers a fire-and-forget signal to dst. In reliable mode
// beats skip the ack/retry machinery and batch into coalesced frames,
// flushed when the batch fills (CoalesceLimit), when its fabric-clock
// deadline of 1ms expires, or by piggybacking on the next data
// frame to the same peer — so a 1ms heartbeat no longer costs a framed
// send plus an ack per beat. The price is every delivery guarantee: beats
// may be lost, duplicated, delayed, or overtake sequenced data. Use them
// only for idempotent signals whose loss the receiver already tolerates.
// In direct mode a beat is an ordinary send.
func (c *Comm) SendBeat(dst, tag int, payload []byte) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	if c.rel != nil {
		return c.rel.sendBeat(dst, tag, payload)
	}
	return c.ep.Send(dst, tag, payload)
}

// Recv blocks for a message matching (src, tag); src may be
// transport.AnySource.
func (c *Comm) Recv(src, tag int) (transport.Message, error) {
	return c.RecvCtx(c.Context(), src, tag)
}

// RecvCtx is Recv under an explicit context: cancellation unblocks the
// wait with ctx.Err().
func (c *Comm) RecvCtx(ctx context.Context, src, tag int) (transport.Message, error) {
	if tag != transport.AnyTag && (tag < 0 || tag > MaxUserTag) {
		return transport.Message{}, fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return c.recvMsg(ctx, src, tag)
}

// TryRecv is the non-blocking variant of Recv; ok is false when no
// matching message is available.
func (c *Comm) TryRecv(src, tag int) (transport.Message, bool, error) {
	if tag != transport.AnyTag && (tag < 0 || tag > MaxUserTag) {
		return transport.Message{}, false, fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	return c.tryRecvMsg(src, tag)
}

// nextTag issues the collective-reserved tag for the next collective call.
func (c *Comm) nextTag() int {
	c.seq++
	return tagCollective + c.seq
}

// Barrier blocks until every rank has entered the barrier: a binomial-tree
// gather to rank 0 followed by a tree broadcast of the release.
func (c *Comm) Barrier() error {
	ctx := c.Context()
	tag := c.nextTag()
	if err := c.treeGatherSignal(ctx, tag); err != nil {
		return fmt.Errorf("mpi: barrier gather: %w", err)
	}
	if _, err := c.treeBcast(ctx, tag, nil, false); err != nil {
		return fmt.Errorf("mpi: barrier release: %w", err)
	}
	return nil
}

// treeGatherSignal collapses an empty token up the binomial tree to rank 0.
func (c *Comm) treeGatherSignal(ctx context.Context, tag int) error {
	rank, size := c.Rank(), c.Size()
	for dist := 1; dist < size; dist <<= 1 {
		if rank&dist != 0 {
			return c.send(ctx, rank-dist, tag, nil, nil, false)
		}
		peer := rank + dist
		if peer < size {
			if _, err := c.recvMsg(ctx, peer, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// treeBcast pushes data down the binomial tree from rank 0. Non-root ranks
// ignore their data argument and return the received payload. A rank's
// parent is rank minus its lowest set bit; after receiving it forwards to
// rank+mask for each mask below that bit — the classic binomial broadcast.
//
// shared marks root's data as relinquished (see SendShared); forwarded
// payloads are always shared — a rank that just received them never
// mutates them, it only reads and re-sends.
func (c *Comm) treeBcast(ctx context.Context, tag int, data []byte, shared bool) ([]byte, error) {
	rank, size := c.Rank(), c.Size()
	mask := 1
	for mask < size {
		if rank&mask != 0 {
			m, err := c.recvMsg(ctx, rank-mask, tag)
			if err != nil {
				return nil, err
			}
			data = m.Payload
			shared = true
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if peer := rank + mask; peer < size {
			if err := c.send(ctx, peer, tag, nil, data, shared); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Bcast distributes root's payload to every rank and returns it. Non-root
// ranks pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	return c.bcastPayload(root, data, false)
}

// bcastPayload is Bcast with an ownership flag: shared means root has
// relinquished data (freshly marshalled, never touched again), so every
// hop can forward it by reference.
func (c *Comm) bcastPayload(root int, data []byte, shared bool) ([]byte, error) {
	ctx := c.Context()
	tag := c.nextTag()
	if root != 0 {
		// Rotate so the tree is rooted at 0 logically: root forwards to 0
		// first. Simple and rare; the benchmarks root at 0.
		if c.Rank() == root {
			if err := c.send(ctx, 0, tag, nil, data, shared); err != nil {
				return nil, err
			}
		}
		if c.Rank() == 0 {
			m, err := c.recvMsg(ctx, root, tag)
			if err != nil {
				return nil, err
			}
			data = m.Payload
			shared = true
		}
	}
	return c.treeBcast(ctx, c.nextTag(), data, shared)
}

// Scatter sends parts[i] to rank i and returns this rank's part. Only root
// examines parts; it must supply exactly Size() parts. Implemented with
// direct sends from root — the paper's runtime likewise sends each node its
// slice directly (§3.5).
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	return c.scatterPayload(root, parts, false)
}

// scatterPayload is Scatter with an ownership flag: shared means root has
// relinquished every part, so each is sent by reference.
func (c *Comm) scatterPayload(root int, parts [][]byte, shared bool) ([]byte, error) {
	ctx := c.Context()
	tag := c.nextTag()
	if c.Rank() == root {
		if len(parts) != c.Size() {
			return nil, fmt.Errorf("mpi: scatter with %d parts for %d ranks", len(parts), c.Size())
		}
		for dst, p := range parts {
			if dst == root {
				continue
			}
			if err := c.send(ctx, dst, tag, nil, p, shared); err != nil {
				return nil, err
			}
		}
		return parts[root], nil
	}
	m, err := c.recvMsg(ctx, root, tag)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// Gather collects every rank's payload at root; the returned slice is
// indexed by rank at root and nil elsewhere.
func (c *Comm) Gather(root int, mine []byte) ([][]byte, error) {
	return c.gatherPayload(root, mine, false)
}

// gatherPayload is Gather with an ownership flag: shared means the caller
// has relinquished mine, so non-root ranks send it by reference.
func (c *Comm) gatherPayload(root int, mine []byte, shared bool) ([][]byte, error) {
	ctx := c.Context()
	tag := c.nextTag()
	if c.Rank() != root {
		return nil, c.send(ctx, root, tag, nil, mine, shared)
	}
	out := make([][]byte, c.Size())
	out[root] = mine
	for i := 0; i < c.Size()-1; i++ {
		m, err := c.recvMsg(ctx, transport.AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[m.Src] = m.Payload
	}
	return out, nil
}

// ReduceBytes folds every rank's payload into one value at rank 0 using a
// binomial tree; combine must be associative. Returns (result, true) at
// rank 0 and (nil, false) elsewhere.
func (c *Comm) ReduceBytes(mine []byte, combine func(a, b []byte) ([]byte, error)) ([]byte, bool, error) {
	return c.reducePayload(mine, combine, false)
}

// reducePayload is ReduceBytes with an ownership flag: shared means the
// caller has relinquished mine and combine always returns fresh storage,
// so partial results climb the tree by reference.
func (c *Comm) reducePayload(mine []byte, combine func(a, b []byte) ([]byte, error), shared bool) ([]byte, bool, error) {
	ctx := c.Context()
	tag := c.nextTag()
	rank, size := c.Rank(), c.Size()
	acc := mine
	for dist := 1; dist < size; dist <<= 1 {
		if rank&dist != 0 {
			return nil, false, c.send(ctx, rank-dist, tag, nil, acc, shared)
		}
		peer := rank + dist
		if peer < size {
			m, err := c.recvMsg(ctx, peer, tag)
			if err != nil {
				return nil, false, err
			}
			acc, err = combine(acc, m.Payload)
			if err != nil {
				return nil, false, err
			}
		}
	}
	return acc, rank == 0, nil
}
