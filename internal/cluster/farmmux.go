// The farm engine: the one task-distribution mechanism in this package.
// OpenMux parks every worker in one long-lived task loop whose frames name
// their kernel and owning job per task; the master fills the workers' slots
// (muxDepth each), polls for results and worker losses, and runs a task on
// the master itself when asked. The Mux is pure mechanism — dispatch,
// result collection, liveness — and makes no scheduling decisions. Its two
// clients bring the policy, each with one Ledger (ledger.go) per job for
// the retry/quarantine/checkpoint rules: Session.FarmOpts (farm.go) runs
// one task list, and the job service (internal/jobs) interleaves tasks
// from many concurrent jobs onto the shared pool by weighted deficit
// round-robin.
//
// Fault handling: a worker that crashes, stops acknowledging, or goes
// heartbeat-silent is retired, and its in-flight assignments come back to
// the caller, oldest first, as a MuxWorkerLost event for requeueing. Only a
// worker's frames (beats, results) prove it alive, not work assigned to it.
// Late results from a retired-but-alive worker are delivered as ordinary
// MuxTaskDone events — deduplication is the caller's job.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Reserved user tags for the farm protocol, just below the control tag
// (ctlTag is MaxUserTag).
const (
	muxTaskTag   = mpi.MaxUserTag - 1
	muxResultTag = mpi.MaxUserTag - 2
	muxBeatTag   = mpi.MaxUserTag - 3
)

// muxKernelName is the reserved name the Mux dispatches to start the worker
// loop (workerMain runs muxWorkerMain for it); like shutdownName it is
// unregistrable by applications (NUL prefix).
const muxKernelName = "\x00jobs.mux"

// muxDepth is how many assignments a worker holds: the one it runs and the
// next, waiting in its mailbox, so dispatch hides behind kernel time.
const muxDepth = 2

// defaultFarmHeartbeat is the worker beat interval when Config.FarmHeartbeat
// is unset.
const defaultFarmHeartbeat = time.Millisecond

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
	// in-flight assignments, oldest first, for the caller to reschedule.
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
	// Requeued is the lost worker's in-flight assignments (MuxWorkerLost).
	Requeued []MuxAssignment
	// Next is, on a worker's MuxTaskDone, the assignment it held behind the
	// one reporting, which starts running now (Job "": none).
	Next MuxAssignment
}

// MuxOptions tunes a Mux.
type MuxOptions struct {
	// HeartbeatTimeout retires a worker whose beats and results stop for
	// this long (0 = the farm default 500ms; negative disables).
	HeartbeatTimeout time.Duration
}

// Mux is the master's handle on the multiplexed worker pool. It is owned
// by a single goroutine (its client's loop), like a Comm.
type Mux struct {
	s         *Session
	clk       transport.Clock
	hbTimeout time.Duration
	alive     map[int]bool
	busy      map[int][]MuxAssignment // per worker: in flight, oldest first, at most muxDepth
	lastSeen  map[int]time.Time       // per worker: when a frame from it last arrived
	idle      []int                   // Idle's result, reused
	events    []MuxEvent
	closed    bool
	// parked are the ranks that may have entered the worker loop, retired
	// ones included: each is owed a stop frame at Close.
	parked []int
}

// OpenMux dispatches the multiplexed worker loop to every worker node and
// returns the master's handle, not waiting for acknowledgements. Workers the
// fabric reports crashed at dispatch come out of the first Poll calls as
// MuxWorkerLost events; every other one is parked, and Poll retires it later.
func (s *Session) OpenMux(opt MuxOptions) (*Mux, error) {
	hb := opt.HeartbeatTimeout
	if hb == 0 {
		hb = defaultHeartbeatTimeout
	}
	m := &Mux{
		s:         s,
		clk:       s.fabric.Clock(),
		hbTimeout: hb,
		alive:     make(map[int]bool),
		busy:      make(map[int][]MuxAssignment),
		lastSeen:  make(map[int]time.Time),
	}
	lost, err := s.dispatch(muxKernelName)
	if err != nil {
		return nil, fmt.Errorf("cluster: mux dispatch: %w", err)
	}
	now := m.clk.Now()
	for w := 1; w < s.node.Nodes(); w++ {
		if slices.Contains(lost, w) {
			m.events = append(m.events, MuxEvent{Kind: MuxWorkerLost, Worker: w})
			continue
		}
		m.alive[w] = true
		m.lastSeen[w] = now
		m.parked = append(m.parked, w)
	}
	return m, nil
}

// Workers reports the number of live (non-retired) workers.
func (m *Mux) Workers() int { return len(m.alive) }

// Idle lists the live workers' free slots, one entry each: every worker
// holding nothing, then every one with room for one more, each pass in rank
// order (a round spreads tasks before it doubles up, and replays exactly).
// The slice is the Mux's own, valid until the next call.
func (m *Mux) Idle() []int {
	m.idle = m.idle[:0]
	for held := range muxDepth {
		for w := 1; w < m.s.node.Nodes(); w++ {
			if m.alive[w] && len(m.busy[w]) <= held {
				m.idle = append(m.idle, w)
			}
		}
	}
	return m.idle
}

// Assign sends one task to a free slot of live worker w (see Idle); reliable
// sends are buffered, so the task is on the wire, not yet acknowledged, when
// it returns. A send that reports w lost retires it (queueing a
// MuxWorkerLost event carrying its assignments back), as Poll's sweep does
// for a worker that stops acknowledging later; any other failure is fatal to
// the session. Idle may list w's other slot after the one whose send retired
// it: until that event is polled, a task for w joins its Requeued instead.
func (m *Mux) Assign(ctx context.Context, w int, a MuxAssignment) error {
	if !m.alive[w] {
		for i := range m.events {
			if ev := &m.events[i]; ev.Kind == MuxWorkerLost && ev.Worker == w {
				ev.Requeued = append(ev.Requeued, a)
				return nil
			}
		}
		return fmt.Errorf("cluster: mux assign to retired worker %d", w)
	}
	if len(m.busy[w]) >= muxDepth {
		return fmt.Errorf("cluster: mux assign to full worker %d", w)
	}
	err := m.s.node.Comm.SendCtx(ctx, w, muxTaskTag, encodeMuxTask(false, a))
	lost := err != nil && (errors.Is(err, mpi.ErrRankLost) || errors.Is(err, transport.ErrCrashed))
	if err != nil && !lost {
		return err
	}
	m.busy[w] = append(m.busy[w], a)
	if lost {
		m.retire(w) // moves a into the event's Requeued
	}
	return nil
}

// retire removes w from the pool and queues its MuxWorkerLost event.
func (m *Mux) retire(w int) {
	ev := MuxEvent{Kind: MuxWorkerLost, Worker: w, Requeued: m.busy[w]}
	delete(m.busy, w)
	delete(m.alive, w)
	m.events = append(m.events, ev)
	m.tracer().Instant(0, "farm.retire", int64(w))
}

func (m *Mux) tracer() *trace.Tracer { return m.s.node.Tracer }

// Poll drains protocol traffic without blocking and returns the next
// event, if any: queued worker losses first, then a freshly arrived
// result, then health-sweep retirements. ok is false when nothing
// happened; a caller with nothing else to do then idles in the master
// communicator's Idle (generation read before the Poll) until NextExpiry.
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
		q := m.busy[rm.Src]
		if i := slices.IndexFunc(q, func(a MuxAssignment) bool { return a.Job == ev.Job && a.Task == ev.Task }); i >= 0 {
			q = slices.Delete(q, i, i+1)
			m.busy[rm.Src] = q
			if i == 0 && len(q) > 0 {
				ev.Next = q[0] // a worker runs its assignments in order
			}
		}
		return ev, true, nil
	}
	// Nothing arrived: sweep for workers whose frames the reliable layer gave
	// up on, fabric-reported crashes and silence.
	for _, w := range m.s.node.Comm.TakeLost() {
		if m.alive[w] {
			m.retire(w)
		}
	}
	now := m.clk.Now()
	for _, w := range m.parked { // in rank order: a run's retirements replay exactly
		switch {
		case !m.alive[w]:
		case m.s.fabric.Crashed(w):
			m.retire(w)
		case m.hbTimeout > 0 && !now.Before(m.lastSeen[w].Add(m.hbTimeout)):
			m.tracer().Instant(0, "farm.heartbeat-miss", int64(w))
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

// RunLocal executes one assignment on the master itself — a task pinned to
// rank 0, or the no-workers fallback — and returns its MuxTaskDone event
// without touching the wire, acknowledging the results live workers send
// meanwhile (mpi.Comm.Serving).
func (m *Mux) RunLocal(a MuxAssignment) MuxEvent {
	if len(m.alive) > 0 {
		defer m.s.node.Comm.Serving()()
	}
	return execute(m.s.node, a)
}

// execute runs assignment a on node n and returns its MuxTaskDone event:
// the kernel looked up by name, a panic contained as a task error, the
// compute time measured on the fabric clock.
func execute(n *Node, a MuxAssignment) MuxEvent {
	ev := MuxEvent{Kind: MuxTaskDone, Worker: n.Rank(), Job: a.Job, Task: a.Task}
	fn, ok := farmKernels.lookup(a.Kernel)
	if !ok {
		ev.Err = fmt.Sprintf("cluster: node %d: unknown farm kernel %q", n.Rank(), a.Kernel)
		return ev
	}
	clk := clockOf(n)
	start := clk.Now()
	out, err := runFarmTask(n, fn, a.Payload)
	ev.Elapsed = clk.Now().Sub(start)
	if err != nil {
		ev.Err = err.Error()
		return ev
	}
	ev.OK, ev.Result = true, out
	return ev
}

// Close releases every parked worker back to the kernel-dispatch loop
// (retired-but-alive workers included: they are still blocked in the task
// loop and need the stop frame). Sends to dead ranks fail tolerably.
func (m *Mux) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	for _, w := range m.parked {
		if err := m.s.node.Comm.Send(w, muxTaskTag, encodeMuxTask(true, MuxAssignment{})); err != nil &&
			!errors.Is(err, mpi.ErrRankLost) && !errors.Is(err, transport.ErrCrashed) {
			return fmt.Errorf("cluster: mux stop: %w", err)
		}
	}
	return nil
}

// encodeMuxTask frames one assignment (stop=true carries no task), sized exactly.
func encodeMuxTask(stop bool, a MuxAssignment) []byte {
	w := serial.NewWriter(33 + len(a.Job) + len(a.Kernel) + len(a.Payload))
	w.Bool(stop)
	w.String(a.Job)
	w.String(a.Kernel)
	w.Int(a.Task)
	w.RawBytes(a.Payload)
	return w.Bytes()
}

// decodeMuxTask parses a task frame, as strictly as decodeMuxResult: a
// short read, trailing bytes or a negative task index is an error. The payload
// is a view of the frame, which its receiver owns.
func decodeMuxTask(payload []byte) (stop bool, a MuxAssignment, err error) {
	r := serial.NewReader(payload)
	stop = r.Bool()
	a = MuxAssignment{Job: r.String(), Kernel: r.String(), Task: r.Int(), Payload: r.View()}
	if r.Err() != nil {
		return false, MuxAssignment{}, r.Err()
	}
	if r.Remaining() != 0 || a.Task < 0 {
		return false, MuxAssignment{}, errors.New("trailing bytes or negative task index")
	}
	return stop, a, nil
}

// encodeMuxResult frames one MuxTaskDone event, carrying the kernel's
// fabric-clock compute time for task timing and per-job accounting. The
// sender is not framed: the receiver knows who it heard from. The frame is
// sized exactly: an event carries a result or an error, not both.
func encodeMuxResult(ev MuxEvent) []byte {
	w := serial.NewWriter(33 + len(ev.Job) + len(ev.Result) + len(ev.Err))
	w.String(ev.Job)
	w.Int(ev.Task)
	w.U64(uint64(ev.Elapsed))
	w.Bool(ev.OK)
	if ev.OK {
		w.RawBytes(ev.Result)
	} else {
		w.String(ev.Err)
	}
	return w.Bytes()
}

// decodeMuxResult parses a result frame into its MuxTaskDone event (Result views it).
func decodeMuxResult(src int, payload []byte) (MuxEvent, error) {
	r := serial.NewReader(payload)
	ev := MuxEvent{Kind: MuxTaskDone, Worker: src}
	ev.Job = r.String()
	ev.Task = r.Int()
	ev.Elapsed = time.Duration(r.U64())
	ev.OK = r.Bool()
	if ev.OK {
		ev.Result = r.View()
	} else {
		ev.Err = r.String()
	}
	if r.Err() != nil || r.Remaining() != 0 || ev.Task < 0 || ev.Elapsed < 0 {
		return MuxEvent{}, fmt.Errorf("malformed mux result from node %d", src)
	}
	return ev, nil
}

// muxWorkerMain is the node-side loop: receive a kernel-named task,
// execute, reply with timing, repeat until the stop frame. A helper
// goroutine sends liveness beats to the master every Config.FarmHeartbeat —
// also while the kernel is computing — so the master's health sweep can
// tell a long task from a dead worker; another acknowledges the task the
// master prefetches while the kernel computes (mpi.Comm.Serving).
func muxWorkerMain(n *Node) error {
	defer n.Comm.Serving()()
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
				// Beats are idempotent liveness signals: the master only
				// cares that they keep arriving, so they ride the unacked
				// coalesced path instead of costing a framed send plus an
				// ack each (see mpi.Comm.SendBeat).
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
	for {
		m, err := n.Comm.Recv(0, muxTaskTag)
		if err != nil {
			if errors.Is(err, mpi.ErrRankLost) {
				// The master stopped acknowledging us — it has retired this
				// worker (we were paused or partitioned) or died. Either
				// way the job's outcome is decided master-side; exiting the
				// task loop quietly keeps a zombie worker from aborting a
				// session that already wrote us off.
				return nil
			}
			return err
		}
		stopFrame, a, err := decodeMuxTask(m.Payload)
		if err != nil {
			return fmt.Errorf("cluster: node %d: malformed mux task: %w", n.Rank(), err)
		}
		if stopFrame {
			return nil
		}
		if err := n.Comm.Send(0, muxResultTag, encodeMuxResult(execute(n, a))); err != nil {
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
