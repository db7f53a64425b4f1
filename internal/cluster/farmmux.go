// Multiplexed farm engine: the transport mechanism under the multi-tenant
// job service (internal/jobs). A single farm run owns every worker for the
// duration of one task list; the Mux instead keeps all workers parked in
// one long-lived task loop whose frames name their kernel per task, so the
// master can interleave tasks from many concurrent jobs onto the shared
// pool. The Mux is pure mechanism — dispatch, result collection, liveness —
// and makes no scheduling decisions: which job's task goes out next is the
// caller's policy (the jobs package's weighted deficit round-robin).
//
// Fault handling mirrors the single farm: a worker that crashes, stops
// acknowledging, or goes heartbeat-silent is retired, and its in-flight
// assignment comes back to the caller as a MuxWorkerLost event for
// requeueing. Late results from a retired-but-alive worker are delivered
// as ordinary MuxTaskDone events — deduplication is the caller's job,
// exactly as it is for the single farm's completed[] check.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Reserved user tags for the mux protocol, continuing the farm block
// (ctlTag, farmTaskTag, farmResultTag, farmBeatTag occupy MaxUserTag..-3).
const (
	muxTaskTag   = mpi.MaxUserTag - 4
	muxResultTag = mpi.MaxUserTag - 5
	muxBeatTag   = mpi.MaxUserTag - 6
)

// muxKernelName is the reserved worker-loop kernel the Mux dispatches; like
// shutdownName it is unregistrable by applications (NUL prefix).
const muxKernelName = "\x00jobs.mux"

// ensureMuxWorker installs the mux worker loop in the kernel registry. It
// is idempotent (unlike RegisterWorker) because tests reset the registry
// between sessions and every Mux open must be able to restore it.
func ensureMuxWorker() {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[muxKernelName]; !ok {
		registry[muxKernelName] = muxWorkerMain
	}
}

// MuxAssignment is one task routed through the Mux: a job-qualified,
// kernel-named unit of work.
type MuxAssignment struct {
	// Job is the owning job's name; it rides the wire so results route
	// back to the right job without any per-job connection state.
	Job string
	// Kernel names the registered farm kernel (RegisterFarm) to run.
	Kernel string
	// Task is the task's index within its job.
	Task int
	// Payload is the task input.
	Payload []byte
}

// MuxEventKind distinguishes Mux events.
type MuxEventKind uint8

const (
	// MuxTaskDone reports one finished task execution (success or error).
	MuxTaskDone MuxEventKind = 1
	// MuxWorkerLost reports a retired worker; Requeued carries its
	// in-flight assignment (if it had one) for the caller to reschedule.
	MuxWorkerLost MuxEventKind = 2
)

// MuxEvent is one observation from Poll.
type MuxEvent struct {
	Kind   MuxEventKind
	Worker int
	// Task-done fields.
	Job    string
	Task   int
	OK     bool
	Result []byte
	Err    string
	// Elapsed is the kernel's compute time on the executing node, measured
	// on the fabric clock — the raw material for per-job task-seconds.
	Elapsed time.Duration
	// Requeued is the lost worker's in-flight assignment (MuxWorkerLost).
	Requeued []MuxAssignment
}

// MuxOptions tunes a Mux.
type MuxOptions struct {
	// HeartbeatTimeout retires a worker whose beats and results stop for
	// this long (0 = the farm default 500ms; negative disables).
	HeartbeatTimeout time.Duration
}

// Mux is the master's handle on the multiplexed worker pool. It is owned
// by a single goroutine (the job service's serve loop), like a Comm.
type Mux struct {
	s         *Session
	clk       transport.Clock
	hbTimeout time.Duration
	alive     map[int]bool
	busy      map[int]MuxAssignment
	lastSeen  map[int]time.Time
	events    []MuxEvent
	closed    bool
	// lostAtDispatch are ranks that never received the worker-loop
	// dispatch; they must not be sent stop frames at Close.
	lostAtDispatch map[int]bool
}

// OpenMux dispatches the multiplexed worker loop to every worker node and
// returns the master's handle. Workers already lost at dispatch are
// reported through the first Poll calls as MuxWorkerLost events.
func (s *Session) OpenMux(opt MuxOptions) (*Mux, error) {
	ensureMuxWorker()
	hb := opt.HeartbeatTimeout
	if hb == 0 {
		hb = defaultHeartbeatTimeout
	}
	m := &Mux{
		s:              s,
		clk:            s.fabric.Clock(),
		hbTimeout:      hb,
		alive:          make(map[int]bool),
		busy:           make(map[int]MuxAssignment),
		lastSeen:       make(map[int]time.Time),
		lostAtDispatch: make(map[int]bool),
	}
	var lost []int
	if s.node.cfg.Reliable == nil {
		if _, err := mpi.BcastT(s.node.Comm, 0, stringCodec(), muxKernelName); err != nil {
			return nil, fmt.Errorf("cluster: mux dispatch: %w", err)
		}
	} else {
		var err error
		lost, err = s.dispatch(muxKernelName)
		if err != nil {
			return nil, fmt.Errorf("cluster: mux dispatch: %w", err)
		}
	}
	now := m.clk.Now()
	for w := 1; w < s.node.Nodes(); w++ {
		m.alive[w] = true
		m.lastSeen[w] = now
	}
	for _, w := range lost {
		delete(m.alive, w)
		m.lostAtDispatch[w] = true
		m.events = append(m.events, MuxEvent{Kind: MuxWorkerLost, Worker: w})
	}
	return m, nil
}

// Workers reports the number of live (non-retired) workers.
func (m *Mux) Workers() int { return len(m.alive) }

// Idle returns the live workers with no assignment in flight, in ascending
// rank order (deterministic for a given state, which keeps campaign runs
// replayable).
func (m *Mux) Idle() []int {
	var idle []int
	for w := 1; w < m.s.node.Nodes(); w++ {
		if m.alive[w] {
			if _, b := m.busy[w]; !b {
				idle = append(idle, w)
			}
		}
	}
	return idle
}

// Busy reports w's in-flight assignment, if any.
func (m *Mux) Busy(w int) (MuxAssignment, bool) {
	a, ok := m.busy[w]
	return a, ok
}

// Assign sends one task to live idle worker w. A send that fails because w
// is lost retires it (queueing a MuxWorkerLost event carrying the
// assignment back); any other failure is fatal to the session.
func (m *Mux) Assign(ctx context.Context, w int, a MuxAssignment) error {
	if !m.alive[w] {
		return fmt.Errorf("cluster: mux assign to retired worker %d", w)
	}
	if _, b := m.busy[w]; b {
		return fmt.Errorf("cluster: mux assign to busy worker %d", w)
	}
	frame := encodeMuxTask(false, a)
	if err := m.s.node.Comm.SendCtx(ctx, w, muxTaskTag, frame); err != nil {
		if errors.Is(err, mpi.ErrRankLost) || errors.Is(err, transport.ErrCrashed) {
			m.busy[w] = a // retire() moves it into the event's Requeued
			m.retire(w)
			return nil
		}
		return err
	}
	m.busy[w] = a
	m.lastSeen[w] = m.clk.Now()
	return nil
}

// retire removes w from the pool and queues its MuxWorkerLost event.
func (m *Mux) retire(w int) {
	ev := MuxEvent{Kind: MuxWorkerLost, Worker: w}
	if a, ok := m.busy[w]; ok {
		ev.Requeued = append(ev.Requeued, a)
		delete(m.busy, w)
	}
	delete(m.alive, w)
	m.events = append(m.events, ev)
	m.tracer().Instant(0, "mux.retire", int64(w))
}

func (m *Mux) tracer() *trace.Tracer { return m.s.node.Tracer }

// Poll drains protocol traffic without blocking and returns the next
// event, if any: queued worker losses first, then a freshly arrived
// result, then health-sweep retirements. ok is false when nothing
// happened; a caller with nothing else to do then idles in the master
// endpoint's Wait (generation read before the Poll) until NextExpiry.
func (m *Mux) Poll() (MuxEvent, bool, error) {
	if ev, ok := m.popEvent(); ok {
		return ev, true, nil
	}
	// Beats refresh liveness.
	for {
		hm, ok, err := m.s.node.Comm.TryRecv(transport.AnySource, muxBeatTag)
		if err != nil {
			return MuxEvent{}, false, fmt.Errorf("cluster: mux beat drain: %w", err)
		}
		if !ok {
			break
		}
		m.lastSeen[hm.Src] = m.clk.Now()
	}
	// One result per Poll keeps the caller's accounting loop simple.
	rm, ok, err := m.s.node.Comm.TryRecv(transport.AnySource, muxResultTag)
	if err != nil {
		return MuxEvent{}, false, fmt.Errorf("cluster: mux collect: %w", err)
	}
	if ok {
		m.lastSeen[rm.Src] = m.clk.Now()
		ev, derr := decodeMuxResult(rm.Src, rm.Payload)
		if derr != nil {
			return MuxEvent{}, false, fmt.Errorf("cluster: mux: %w", derr)
		}
		if a, inFlight := m.busy[rm.Src]; inFlight && a.Job == ev.Job && a.Task == ev.Task {
			delete(m.busy, rm.Src)
		}
		return ev, true, nil
	}
	// Nothing arrived: sweep for fabric-reported crashes and silence.
	now := m.clk.Now()
	for w := range m.alive {
		if m.s.fabric.Crashed(w) {
			m.retire(w)
			continue
		}
		if m.hbTimeout > 0 && !now.Before(m.lastSeen[w].Add(m.hbTimeout)) {
			m.tracer().Instant(0, "mux.heartbeat-miss", int64(w))
			m.retire(w)
		}
	}
	if ev, ok := m.popEvent(); ok {
		return ev, true, nil
	}
	return MuxEvent{}, false, nil
}

// NextExpiry is the earliest fabric-clock instant at which a live worker's
// silence reaches the heartbeat timeout — when Poll has something to say
// even if nothing arrives. Zero means never.
func (m *Mux) NextExpiry() (next time.Time) {
	if m.hbTimeout <= 0 {
		return next
	}
	for w := range m.alive {
		next = transport.Sooner(next, m.lastSeen[w].Add(m.hbTimeout))
	}
	return next
}

func (m *Mux) popEvent() (MuxEvent, bool) {
	if len(m.events) == 0 {
		return MuxEvent{}, false
	}
	ev := m.events[0]
	m.events = m.events[1:]
	return ev, true
}

// RunLocal executes one assignment on the master itself — the no-workers
// fallback — and returns its MuxTaskDone event without touching the wire.
func (m *Mux) RunLocal(a MuxAssignment) MuxEvent {
	fn, ok := lookupFarm(a.Kernel)
	ev := MuxEvent{Kind: MuxTaskDone, Worker: 0, Job: a.Job, Task: a.Task}
	if !ok {
		ev.Err = fmt.Sprintf("cluster: farm kernel %q not registered", a.Kernel)
		return ev
	}
	start := m.clk.Now()
	out, err := runFarmTask(m.s.node, fn, a.Payload)
	ev.Elapsed = m.clk.Now().Sub(start)
	if err != nil {
		ev.Err = err.Error()
		return ev
	}
	ev.OK = true
	ev.Result = out
	return ev
}

// Close releases every worker that received the dispatch back to the
// kernel-dispatch loop (retired-but-alive workers included: they are still
// blocked in the task loop and need the stop frame). Sends to dead ranks
// fail tolerably.
func (m *Mux) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	for w := 1; w < m.s.node.Nodes(); w++ {
		if m.lostAtDispatch[w] {
			continue
		}
		if err := m.s.node.Comm.Send(w, muxTaskTag, encodeMuxTask(true, MuxAssignment{})); err != nil &&
			!errors.Is(err, mpi.ErrRankLost) && !errors.Is(err, transport.ErrCrashed) {
			return fmt.Errorf("cluster: mux stop: %w", err)
		}
	}
	return nil
}

// encodeMuxTask frames one assignment (stop=true carries no task).
func encodeMuxTask(stop bool, a MuxAssignment) []byte {
	w := serial.NewWriter(len(a.Payload) + len(a.Job) + len(a.Kernel) + 32)
	w.Bool(stop)
	w.String(a.Job)
	w.String(a.Kernel)
	w.Int(a.Task)
	w.RawBytes(a.Payload)
	return w.Bytes()
}

// encodeMuxResult frames one execution outcome, carrying the kernel's
// fabric-clock compute time for per-job accounting.
func encodeMuxResult(a MuxAssignment, ok bool, out []byte, errMsg string, elapsed time.Duration) []byte {
	w := serial.NewWriter(len(out) + len(errMsg) + len(a.Job) + 40)
	w.String(a.Job)
	w.Int(a.Task)
	w.U64(uint64(elapsed))
	w.Bool(ok)
	if ok {
		w.RawBytes(out)
	} else {
		w.String(errMsg)
	}
	return w.Bytes()
}

// decodeMuxResult parses a result frame into its MuxTaskDone event.
func decodeMuxResult(src int, payload []byte) (MuxEvent, error) {
	r := serial.NewReader(payload)
	ev := MuxEvent{Kind: MuxTaskDone, Worker: src}
	ev.Job = r.String()
	ev.Task = r.Int()
	ev.Elapsed = time.Duration(r.U64())
	ev.OK = r.Bool()
	if ev.OK {
		ev.Result = r.RawBytes()
	} else {
		ev.Err = r.String()
	}
	if r.Err() != nil || r.Remaining() != 0 || ev.Task < 0 {
		return MuxEvent{}, fmt.Errorf("malformed mux result from node %d", src)
	}
	return ev, nil
}

// muxWorkerMain is the node-side loop: receive a kernel-named task,
// execute, reply with timing, repeat until the stop frame. Beats ride the
// unacked coalesced path like farm heartbeats.
func muxWorkerMain(n *Node) error {
	interval := n.cfg.FarmHeartbeat
	if interval <= 0 {
		interval = defaultFarmHeartbeat
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval) //lint:allow fabrictime beat pacing is real-time by design; liveness deadlines are measured on the fabric clock master-side
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := n.Comm.SendBeat(0, muxBeatTag, nil); err != nil {
					return // master unreachable: the task loop will find out
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	clk := clockOf(n)
	for {
		m, err := n.Comm.Recv(0, muxTaskTag)
		if err != nil {
			if errors.Is(err, mpi.ErrRankLost) {
				// Retired (or orphaned) worker: exit quietly, as in
				// farmWorker — the master has already written us off.
				return nil
			}
			return err
		}
		r := serial.NewReader(m.Payload)
		stopFrame := r.Bool()
		a := MuxAssignment{Job: r.String(), Kernel: r.String(), Task: r.Int(), Payload: r.RawBytes()}
		if r.Err() != nil {
			return fmt.Errorf("cluster: node %d: malformed mux task: %w", n.Rank(), r.Err())
		}
		if stopFrame {
			return nil
		}
		fn, ok := lookupFarm(a.Kernel)
		var out []byte
		var ferr error
		var elapsed time.Duration
		if !ok {
			ferr = fmt.Errorf("cluster: node %d: unknown farm kernel %q", n.Rank(), a.Kernel)
		} else {
			start := clk.Now()
			out, ferr = runFarmTask(n, fn, a.Payload)
			elapsed = clk.Now().Sub(start)
		}
		msg := ""
		if ferr != nil {
			msg = ferr.Error()
		}
		if err := n.Comm.Send(0, muxResultTag, encodeMuxResult(a, ferr == nil, out, msg, elapsed)); err != nil {
			if errors.Is(err, mpi.ErrRankLost) {
				return nil // retired mid-reply: quiet exit
			}
			return err
		}
	}
}

// clockOf returns the node's time source: the injected cluster clock when
// one is configured, the system clock otherwise — the same source the
// fabric hands the master, under the SPMD assumption.
func clockOf(n *Node) transport.Clock {
	if n.cfg.Clock != nil {
		return n.cfg.Clock
	}
	return transport.SystemClock()
}
