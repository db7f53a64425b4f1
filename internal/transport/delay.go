package transport

import (
	"sync"
	"time"
)

// Optional wire-delay simulation. With a DelayConfig attached, every
// message is held for latency + size/bandwidth before becoming visible to
// the receiver, so real executions on the virtual cluster exhibit actual
// communication/computation overlap and comm-bound scaling — not just
// metered byte counts. Delivery order between each (src, dst) pair is
// preserved (MPI's non-overtaking rule) by running one delivery queue per
// edge.
//
// The delay applies between Send and receivability; Send itself stays
// non-blocking (buffered-send semantics).

// DelayConfig models the wire. Each message on an edge is held for Latency
// plus its own size over BytesPerSec, counted from its own send
// (delayer.submit's readyAt), and delivered in order: concurrent messages on
// one edge share no bandwidth, so k messages sent at once all land one hold
// later, where a shared link would take k transfers. The model has no
// contention.
type DelayConfig struct {
	// Latency is charged per message.
	Latency time.Duration
	// BytesPerSec divides the payload size for the serialization/wire
	// component; 0 means latency only.
	BytesPerSec float64
}

// delayFor computes the hold time for one payload.
func (d DelayConfig) delayFor(bytes int) time.Duration {
	t := d.Latency
	if d.BytesPerSec > 0 {
		t += time.Duration(float64(bytes) / d.BytesPerSec * float64(time.Second))
	}
	return t
}

// edgeQueue delivers messages of one (src, dst) pair in order after their
// delays.
type edgeQueue struct {
	mu      sync.Mutex
	pending []delayedMsg
	running bool
}

type delayedMsg struct {
	dst     int
	tag     int
	payload []byte
	readyAt time.Time
}

// delayer owns the per-edge queues of one fabric.
type delayer struct {
	cfg   DelayConfig
	f     *Fabric
	mu    sync.Mutex
	edges map[[2]int]*edgeQueue
	wg    sync.WaitGroup
}

func newDelayer(cfg DelayConfig, f *Fabric) *delayer {
	return &delayer{cfg: cfg, f: f, edges: map[[2]int]*edgeQueue{}}
}

// submit schedules a delivery. The payload has already been copied by the
// caller.
func (d *delayer) submit(src, dst, tag int, payload []byte) {
	key := [2]int{src, dst}
	d.mu.Lock()
	eq, ok := d.edges[key]
	if !ok {
		eq = &edgeQueue{}
		d.edges[key] = eq
	}
	d.mu.Unlock()

	eq.mu.Lock()
	eq.pending = append(eq.pending, delayedMsg{
		dst: dst, tag: tag, payload: payload,
		readyAt: d.f.Clock().Now().Add(d.cfg.delayFor(len(payload))),
	})
	if !eq.running {
		eq.running = true
		d.wg.Add(1)
		go d.drain(src, eq)
	}
	eq.mu.Unlock()
}

// drain delivers an edge's messages in order, holding each to its readyAt.
func (d *delayer) drain(src int, eq *edgeQueue) {
	defer d.wg.Done()
	for {
		eq.mu.Lock()
		if len(eq.pending) == 0 {
			eq.running = false
			eq.mu.Unlock()
			return
		}
		m := eq.pending[0]
		// Release the payload, and empty the queue in place: re-slicing past
		// the last message would cost a depth-1 queue a realloc per submit.
		eq.pending[0] = delayedMsg{}
		if len(eq.pending) == 1 {
			eq.pending = eq.pending[:0]
		} else {
			eq.pending = eq.pending[1:]
		}
		eq.mu.Unlock()

		hold(m.readyAt.Sub(d.f.Clock().Now()))
		d.f.deliver(src, m.dst, m.tag, m.payload)
	}
}

// Wait blocks until every in-flight delayed message has been delivered.
func (d *delayer) Wait() { d.wg.Wait() }
