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
func hold(d time.Duration) {
	start := time.Now()
	time.Sleep(d - holdSlack) // returns at once when that is not positive
	for time.Since(start) < d {
		runtime.Gosched()
	}
}
