package transport

import (
	"runtime"
	"time"
)

// Clock is the fabric's time source. Protocol layers built on the fabric —
// notably the reliable layer's acknowledgement deadlines — must read time
// through it rather than calling time.Now directly, so tests can inject a
// controlled clock and prove that timeout behavior is a function of fabric
// time, not of wall-clock scheduling jitter. The default is the system
// clock.
type Clock interface {
	Now() time.Time
}

// systemClock is the default Clock: real time.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// SystemClock returns the real-time clock the fabric uses by default.
func SystemClock() Clock { return systemClock{} }

// Clock returns the fabric's time source: Config.Clock if one was
// injected, the system clock otherwise.
func (f *Fabric) Clock() Clock {
	if f.cfg.Clock != nil {
		return f.cfg.Clock
	}
	return systemClock{}
}

// WireDelay reports how long the fabric will hold a payload of the given
// size before it becomes receivable: zero without a DelayConfig, latency +
// size/bandwidth with one. Timeout-based protocols use it to floor their
// deadlines above the round-trip time, so simulated latency produces
// latency — not spurious retransmissions.
func (f *Fabric) WireDelay(bytes int) time.Duration {
	if f.cfg.Delay == nil {
		return 0
	}
	return f.cfg.Delay.delayFor(bytes)
}

// holdSlack is the tail of a hold no sleep can land in: the 1.1 ms an idle
// time.Sleep rounds up to on the hosts this runs on (measured: Sleep(50µs)
// returns after 1.09 ms; bench/README.md, "Host"), plus an eighth.
const holdSlack = 1100 * time.Microsecond * 9 / 8

// hold blocks for d of real time: where the fabric turns modelled wire time
// into elapsed time. It sleeps what the host timer can resolve and yield-spins
// the last holdSlack, so a 50 µs hold costs 50 µs, not a tick; it times itself
// on the system clock, so an injected Clock sizes a hold but cannot stall one.
// The fabric's other spin is Wait's poll (below); Wait serves every deadline
// past the poll with a timer.
func hold(d time.Duration) {
	start := time.Now()
	time.Sleep(d - holdSlack) // returns at once when that is not positive
	for time.Since(start) < d {
		runtime.Gosched()
	}
}

// pollWindow is how long a Wait polls its mailbox before it parks: about one
// host wake-up. On the 2-vCPU hosts this runs on, a parked waiter whose peer
// sends and keeps computing returns 66 / 69 / 74 µs (p10 / p50 / p90) after
// the send, a polling one 0.7 / 0.9 / 1.5 µs (BenchmarkWaitHandoff, park and
// poll). A poll that has run as long as a wake-up takes has nothing left to
// save, so the window is that wake-up's p90 plus a third for hosts whose
// wake-ups run longer.
const pollWindow = 100 * time.Microsecond

// pollCap bounds a poll's checks, so a poll ends under a clock that does not
// advance while a goroutine runs (a fake-time bubble's). 4096 checks take
// ≈ 1 ms at the ≈ 250 ns a check and a Gosched cost here, well past the
// window, so under the system clock the window, not the cap, ends a poll.
const pollCap = 4096

// poll re-checks ready, yielding the processor between checks, until ready
// reports true, clk reaches deadline (zero: none), or pollWindow has passed
// on clk or pollCap checks were made; ok is false on the last two. Wait
// polls only in wall-clock mode, so clk is the system clock there.
func poll(clk Clock, deadline time.Time, ready func() (WaitReason, bool)) (why WaitReason, ok bool) {
	end := clk.Now().Add(pollWindow)
	for range pollCap {
		if why, ok := ready(); ok {
			return why, true
		}
		t := clk.Now()
		if !deadline.IsZero() && !t.Before(deadline) {
			return WaitDeadline, true
		}
		if !t.Before(end) {
			break
		}
		runtime.Gosched()
	}
	return 0, false
}
