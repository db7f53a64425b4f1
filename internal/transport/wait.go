package transport

import (
	"context"
	"runtime"
	"slices"
	"time"
)

// The wait primitive: the one way anything above the fabric idles. A loop
// snapshots its mailbox's generation, drains what is there and, having found
// nothing, blocks in Wait. The snapshot precedes the drain, so whatever
// lands after the drain has already moved the generation and Wait returns
// at once: no wake-up is lost and no poll tick is needed.

// Gen is a snapshot of one mailbox's delivery and Wake counts.
type Gen struct{ arrivals, wakes uint64 }

// WaitReason says why Wait returned.
type WaitReason uint8

const (
	WaitArrival  WaitReason = iota // a delivery since the snapshot
	WaitWake                       // a Wake (or a peer's crash) since the snapshot
	WaitDeadline                   // the fabric clock reached the deadline
	WaitCtx                        // the context is done
	WaitClosed                     // the fabric closed or this rank crashed
)

// recheckCeiling is how long a deadline wait sleeps under an injected clock,
// which a real timer cannot follow, before it reads the clock again.
const recheckCeiling = time.Millisecond

// ctxWatch is a context whose cancellation broadcasts to a mailbox.
type ctxWatch struct {
	done <-chan struct{}
	stop func() bool
}

// watch makes ctx's cancellation wake the mailbox's waiters. A context is
// registered once per mailbox, not once per wait, until it fires or the
// mailbox closes. Callers hold mu.
func (mb *mailbox) watch(ctx context.Context) {
	done := ctx.Done()
	if done == nil || mb.closed {
		return
	}
	for _, w := range mb.watched {
		if w.done == done {
			return
		}
	}
	stop := context.AfterFunc(ctx, func() {
		mb.mu.Lock()
		mb.watched = slices.DeleteFunc(mb.watched, func(w ctxWatch) bool { return w.done == done })
		mb.cond.Broadcast()
		mb.mu.Unlock()
	})
	mb.watched = append(mb.watched, ctxWatch{done, stop})
}

// shut closes the mailbox: waiters wake, context registrations end. Callers
// hold mu.
func (mb *mailbox) shut(crashed bool) {
	if mb.closed {
		return
	}
	mb.closed, mb.crashed = true, crashed
	for _, w := range mb.watched {
		w.stop()
	}
	mb.watched = nil
	mb.cond.Broadcast()
}

// arm makes the mailbox's one timer fire no later than the fabric-clock
// instant at, d from now. The rank's waiters share it: a fire broadcasts,
// and whoever still has a deadline arms it again. Callers hold mu.
func (mb *mailbox) arm(at time.Time, d time.Duration) {
	if !mb.armedAt.IsZero() && !at.Before(mb.armedAt) {
		return
	}
	mb.armedAt = at
	if mb.timer != nil {
		mb.timer.Reset(d)
		return
	}
	//lint:allow fabrictime the sleep is real time by nature; the deadline it sleeps toward is read off the fabric clock
	mb.timer = time.AfterFunc(d, func() {
		mb.mu.Lock()
		mb.armedAt = time.Time{}
		mb.cond.Broadcast()
		mb.mu.Unlock()
	})
}

// Sooner returns the earlier of two Wait deadlines; the zero time means "no
// deadline" and loses to any other.
func Sooner(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// Gen snapshots this endpoint's mailbox generation for a later Wait.
func (e *Endpoint) Gen() Gen {
	mb := e.f.boxes[e.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return Gen{mb.arrivals, mb.wakes}
}

// Wake ends every Wait at this endpoint from a snapshot taken before the
// call. It is how state kept outside the mailbox (a locally enqueued
// message, a submitted job) reaches a loop that idles on the mailbox.
func (e *Endpoint) Wake() {
	mb := e.f.boxes[e.rank]
	mb.mu.Lock()
	mb.wakes++
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// Wait blocks until this endpoint's mailbox has moved past since (a delivery
// or a Wake), the mailbox closed or crashed, ctx is done, or the fabric clock
// reached deadline (zero: none), and reports which; conditions already true
// on entry win in that order. A wait on a context the mailbox has seen
// before allocates nothing.
func (e *Endpoint) Wait(ctx context.Context, since Gen, deadline time.Time) WaitReason {
	return e.wait(ctx, since, deadline, false)
}

// WaitExact is Wait for a deadline that must be met at the precision hold
// gives a modelled wire delay: it sleeps what the host timer can resolve and
// yield-spins the last holdSlack, so a deadline 500 µs away ends the wait
// after 500 µs, not after a 1.1 ms tick. The spin costs a CPU for up to
// holdSlack; it is for deadlines something is stalled behind (a
// retransmission), not for housekeeping ones. Under an injected clock, which
// no spin can hurry, it is Wait.
func (e *Endpoint) WaitExact(ctx context.Context, since Gen, deadline time.Time) WaitReason {
	return e.wait(ctx, since, deadline, e.f.cfg.Clock == nil)
}

func (e *Endpoint) wait(ctx context.Context, since Gen, deadline time.Time, spin bool) WaitReason {
	mb := e.f.boxes[e.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.watch(ctx)
	for {
		switch {
		case mb.arrivals != since.arrivals:
			return WaitArrival
		case mb.wakes != since.wakes:
			return WaitWake
		case mb.closed:
			return WaitClosed
		case ctx.Err() != nil:
			return WaitCtx
		}
		if !deadline.IsZero() {
			now := e.f.Clock().Now()
			left := deadline.Sub(now)
			if left <= 0 {
				return WaitDeadline
			}
			if spin {
				if left <= holdSlack {
					mb.mu.Unlock()
					runtime.Gosched()
					mb.mu.Lock()
					continue
				}
				left -= holdSlack
			}
			if e.f.cfg.Clock != nil {
				left = recheckCeiling
			}
			mb.arm(now.Add(left), left)
		}
		mb.cond.Wait()
	}
}
