package transport

import (
	"context"
	"slices"
	"time"
)

// The wait primitive: the one way anything above the fabric idles. A loop
// snapshots its mailbox's generation, drains what is there and, having found
// nothing, blocks in Wait. The snapshot precedes the drain, so whatever
// lands after the drain has already moved the generation and Wait returns
// at once: no wake-up is lost and no poll tick is needed.
//
// Wait blocks in two phases. It first polls the mailbox for pollWindow
// (clock.go), yielding the processor between checks, and parks on the
// mailbox cond only if nothing came: a parked goroutine pays a host thread
// wake-up on every arrival, a polling one does not. The poll runs only in
// wall-clock mode (an injected Clock parks at once, so fake time is never
// spun on) and only while the fabric's ranks that are not waiting leave a
// processor free (Ranks − waiting ranks < GOMAXPROCS, read when the fabric
// is made), so it never takes a processor from a rank that computes. A
// rank counts as waiting while a Wait of its own is in progress; a helper's
// Wait through Beside neither polls nor counts, so a helper idling beside
// its computing owner leaves the rank busy.

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

// Beside returns an endpoint on this rank for a goroutine that idles beside
// the rank's owner while the owner computes (mpi's Serving helper): its Waits
// park at once and do not count the rank as waiting, so they neither poll
// nor open another rank's poll on the owner's processor.
func (e *Endpoint) Beside() *Endpoint {
	return &Endpoint{f: e.f, rank: e.rank, beside: true}
}

// settled reports the condition a Wait from since returns on, if one holds.
// Callers hold mu.
func (mb *mailbox) settled(ctx context.Context, since Gen) (WaitReason, bool) {
	switch {
	case mb.arrivals != since.arrivals:
		return WaitArrival, true
	case mb.wakes != since.wakes:
		return WaitWake, true
	case mb.closed:
		return WaitClosed, true
	case ctx.Err() != nil:
		return WaitCtx, true
	}
	return 0, false
}

// waiting counts a Wait in and (by -1) out of this rank's; the fabric's
// count of waiting ranks moves when the rank's first starts or last ends.
// Callers hold mu.
func (f *Fabric) waiting(mb *mailbox, by int) {
	mb.waiters += by
	if mb.waiters == 0 || mb.waiters == by {
		f.waitRanks.Add(int32(by))
	}
}

// Wait blocks until this endpoint's mailbox has moved past since (a delivery
// or a Wake), the mailbox closed or crashed, ctx is done, or the fabric clock
// reached deadline (zero: none), and reports which; conditions already true
// on entry win in that order. It polls for up to pollWindow first where the
// poll is allowed (see above), then parks. The mailbox's one timer serves a
// parked wait's deadline, so a deadline nearer than the host timer's tick
// ends the wait at the tick. A wait on a context the mailbox has seen before
// allocates nothing.
func (e *Endpoint) Wait(ctx context.Context, since Gen, deadline time.Time) WaitReason {
	mb := e.f.boxes[e.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.watch(ctx)
	polls := !e.beside && e.f.cfg.Clock == nil
	if !e.beside {
		e.f.waiting(mb, 1)
		defer e.f.waiting(mb, -1)
	}
	for {
		if why, ok := mb.settled(ctx, since); ok {
			return why
		}
		if polls && e.f.cfg.Ranks-int(e.f.waitRanks.Load()) < e.f.procs {
			polls = false
			mb.polls++
			mb.mu.Unlock()
			why, ok := poll(e.f.Clock(), deadline, func() (WaitReason, bool) {
				mb.mu.Lock()
				why, ok := mb.settled(ctx, since)
				mb.mu.Unlock()
				return why, ok
			})
			mb.mu.Lock()
			if ok {
				return why
			}
			continue
		}
		polls = false
		if !deadline.IsZero() {
			now := e.f.Clock().Now()
			left := deadline.Sub(now)
			if left <= 0 {
				return WaitDeadline
			}
			if e.f.cfg.Clock != nil {
				left = recheckCeiling
			}
			mb.arm(now.Add(left), left)
		}
		mb.parks++
		mb.cond.Wait()
	}
}
