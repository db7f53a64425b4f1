// Task farm: the fault-tolerant counterpart of the collective skeletons.
// Collective kernels (scatter → compute → reduce) need every rank alive
// for the whole call; the farm instead streams independent tasks to
// workers one at a time, so when a worker is lost mid-run (ack timeouts, a
// fabric-reported crash, or a silent heartbeat) the master requeues that
// worker's in-flight task, keeps going with the survivors, and — if every
// worker dies — runs the remainder itself.
//
// On top of worker loss the farm supervises the tasks themselves: a kernel
// error or panic is a per-task failure retried on another worker up to
// MaxAttempts and then quarantined in FarmResult.Failed instead of killing
// the job; completed tasks can be written to a checkpoint.Store so a
// restarted master resumes a named job re-executing only unfinished work;
// and the whole run is cancellable through a context. The session degrades
// gracefully and reports the partial failure in FarmResult instead of
// deadlocking, which is exactly the behavior the paper's lossless-MPI
// runtime cannot offer (§3.4).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// Reserved user tags for the farm protocol (just below the control tag).
const (
	farmTaskTag   = mpi.MaxUserTag - 1
	farmResultTag = mpi.MaxUserTag - 2
	farmBeatTag   = mpi.MaxUserTag - 3
)

// defaultFarmHeartbeat is the worker beat interval when Config.FarmHeartbeat
// is unset.
const defaultFarmHeartbeat = time.Millisecond

// FarmFn is a farm kernel body: one task in, one result out. It runs on
// whichever node the task lands on (a worker, or the master as fallback).
type FarmFn func(n *Node, task []byte) ([]byte, error)

var (
	farmMu       sync.RWMutex
	farmRegistry = map[string]FarmFn{}
)

// RegisterFarm installs a named farm kernel. Like RegisterWorker it is
// called once at init time and panics on duplicates. The same body is
// used worker-side (task loop) and master-side (fallback execution).
func RegisterFarm(name string, fn FarmFn) {
	farmMu.Lock()
	if _, dup := farmRegistry[name]; dup {
		farmMu.Unlock()
		panic(fmt.Sprintf("cluster: duplicate farm kernel %q", name))
	}
	farmRegistry[name] = fn
	farmMu.Unlock()
	RegisterWorker(name, func(n *Node) error { return farmWorker(n, fn) })
}

func lookupFarm(name string) (FarmFn, bool) {
	farmMu.RLock()
	defer farmMu.RUnlock()
	fn, ok := farmRegistry[name]
	return fn, ok
}

// resetFarmRegistry clears the farm kernel table (tests only).
func resetFarmRegistry() {
	farmMu.Lock()
	defer farmMu.Unlock()
	farmRegistry = map[string]FarmFn{}
}

// encodeTask frames one task assignment (stop=true carries no task).
// timing asks the worker to report the task's kernel time back on the
// heartbeat tag (see encodeTiming) — set when the master has an
// OnTaskTiming observer, one flag byte otherwise.
func encodeTask(stop bool, index int, payload []byte, timing bool) []byte {
	w := serial.NewWriter(len(payload) + 16)
	w.Bool(stop)
	w.Int(index)
	w.Bool(timing)
	w.RawBytes(payload)
	return w.Bytes()
}

// encodeTiming frames one per-task timing report: the payload of a
// timing beat. Timing rides the unacked beat path on purpose — losing a
// sample under faults only deprives the recalibrator of one observation,
// and beats coalesce/piggyback so the control-plane message budget is
// unchanged.
func encodeTiming(index int, elapsed time.Duration) []byte {
	w := serial.NewWriter(16)
	w.Int(index)
	w.U64(uint64(elapsed))
	return w.Bytes()
}

// decodeTiming parses a timing beat payload. ok is false for a plain
// liveness beat (empty payload) or a malformed one — both are just
// liveness signals to the caller.
func decodeTiming(payload []byte) (index int, elapsed time.Duration, ok bool) {
	if len(payload) == 0 {
		return 0, 0, false
	}
	r := serial.NewReader(payload)
	index = r.Int()
	elapsed = time.Duration(r.U64())
	if r.Err() != nil || r.Remaining() != 0 || elapsed < 0 {
		return 0, 0, false
	}
	return index, elapsed, true
}

// runFarmTask invokes the kernel with panic containment: a panicking
// FarmFn yields a per-task error carrying the panic value, not a dead
// rank with no diagnostic.
func runFarmTask(n *Node, fn FarmFn, task []byte) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster: farm kernel panicked: %v", p)
		}
	}()
	return fn(n, task)
}

// farmWorker is the node-side task loop: receive, compute, reply, repeat
// until the stop frame. A helper goroutine sends liveness beats to the
// master every Config.FarmHeartbeat — also while the kernel is computing —
// so the master's health monitor can tell a long task from a dead worker.
func farmWorker(n *Node, fn FarmFn) error {
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
				if err := n.Comm.SendBeat(0, farmBeatTag, nil); err != nil {
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
		m, err := n.Comm.Recv(0, farmTaskTag)
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
		r := serial.NewReader(m.Payload)
		stopFrame := r.Bool()
		idx := r.Int()
		timing := r.Bool()
		task := r.RawBytes()
		if r.Err() != nil {
			return fmt.Errorf("cluster: node %d: malformed farm task: %w", n.Rank(), r.Err())
		}
		if stopFrame {
			return nil
		}
		start := clk.Now()
		out, ferr := runFarmTask(n, fn, task)
		if timing && ferr == nil {
			// Best-effort: a lost timing beat costs one recalibration
			// sample, nothing else. Sent before the result so coalescing
			// piggybacks it on (or ahead of) the result frame.
			_ = n.Comm.SendBeat(0, farmBeatTag, encodeTiming(idx, clk.Now().Sub(start)))
		}
		w := serial.NewWriter(len(out) + 16)
		w.Int(idx)
		w.Bool(ferr == nil)
		if ferr != nil {
			w.String(ferr.Error())
		} else {
			w.RawBytes(out)
		}
		if err := n.Comm.Send(0, farmResultTag, w.Bytes()); err != nil {
			if errors.Is(err, mpi.ErrRankLost) {
				return nil // retired mid-reply: same quiet exit as above
			}
			return err
		}
	}
}

// TaskFailure is one quarantined task: it failed MaxAttempts times (on
// workers, the master fallback, or both) and was excluded from the run so
// the remaining tasks could finish.
type TaskFailure struct {
	// Task is the failed task's index.
	Task int
	// Attempts is how many executions the task consumed.
	Attempts int
	// Err is the final attempt's error text.
	Err string
}

// FarmResult reports a farm run's outcome, including its partial-failure
// details.
type FarmResult struct {
	// Results holds one result per task, in task order. Entries for
	// quarantined tasks (see Failed) are nil.
	Results [][]byte
	// Failed lists quarantined tasks in task order: tasks whose kernel
	// failed or panicked on every one of their MaxAttempts executions.
	Failed []TaskFailure
	// Lost lists worker ranks that died, stopped acknowledging, or went
	// heartbeat-silent and were retired.
	Lost []int
	// Reassigned counts tasks that were requeued off a lost worker.
	Reassigned int
	// Retried counts task re-executions caused by per-task failures.
	Retried int
	// MasterRan counts tasks the master executed itself because no
	// worker remained alive.
	MasterRan int
	// Resumed counts tasks restored from the checkpoint store instead of
	// executed (results and previously quarantined failures both).
	Resumed int
}

// PartialFailure reports whether any worker was lost during the run.
func (fr *FarmResult) PartialFailure() bool { return len(fr.Lost) > 0 }

// FarmOptions tunes a supervised farm run. The zero value is valid: no
// cancellation, no checkpointing, default retry and heartbeat policy.
type FarmOptions struct {
	// Context cancels the run: Farm returns ctx.Err() promptly, leaving
	// partial results in FarmResult. A cancelled farm abandons its
	// workers mid-protocol, so the master should treat the session as
	// over (returning the error from the master function tears the
	// fabric down and unwinds every rank).
	Context context.Context
	// MaxAttempts is the number of times one task may execute before it
	// is quarantined in FarmResult.Failed (default 3).
	MaxAttempts int
	// Checkpoint, when non-nil, records every finished task (results and
	// quarantined failures) under Job, and resumes the job on startup:
	// tasks with a stored record are not re-executed, and their stored
	// bytes are returned — so a resumed run's results are bit-identical
	// to an uninterrupted one.
	Checkpoint checkpoint.Store
	// Job names this run in the checkpoint store. Required when
	// Checkpoint is set.
	Job string
	// HeartbeatTimeout retires a worker whose beats (and results) stop
	// arriving for this long, requeueing its in-flight task — the
	// failure detector for silent workers the fabric does not report as
	// crashed. 0 means the default 500ms; negative disables heartbeat
	// retirement (crash detection still applies).
	HeartbeatTimeout time.Duration
	// OnTaskTiming, when non-nil, receives each successful task's kernel
	// time, measured on the executing node's fabric clock and carried
	// back on the heartbeat tag. Delivery is best-effort (beats are
	// unacked) and at-most-once per task; the callback runs on the
	// master's collect loop. This is AutoPar's recalibration feed.
	OnTaskTiming func(task int, elapsed time.Duration)
}

const (
	defaultMaxAttempts      = 3
	defaultHeartbeatTimeout = 500 * time.Millisecond
)

// Farm runs the named farm kernel over tasks with default supervision and
// returns every result. Tasks are streamed to workers one at a time
// (self-balancing, like the paper's Eden two-level parMap but
// demand-driven); a lost worker's in-flight task is reassigned to a
// survivor. Farm succeeds as long as the master survives — with zero live
// workers it computes the remaining tasks locally — and FarmResult records
// how degraded the run was.
func (s *Session) Farm(name string, tasks [][]byte) (*FarmResult, error) {
	return s.FarmOpts(name, tasks, FarmOptions{})
}

// FarmOpts is Farm under explicit supervision options: cancellation,
// checkpoint/resume, and per-task failure policy. See FarmOptions.
func (s *Session) FarmOpts(name string, tasks [][]byte, opt FarmOptions) (*FarmResult, error) {
	fn, ok := lookupFarm(name)
	if !ok {
		return nil, fmt.Errorf("cluster: farm kernel %q not registered", name)
	}
	ctx := opt.Context
	if ctx == nil {
		// Inherit the session context (RunCtx), so cancelling the run
		// unwinds an optionless Farm too.
		ctx = s.node.Comm.Context()
	}
	maxAttempts := opt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = defaultMaxAttempts
	}
	hbTimeout := opt.HeartbeatTimeout
	if hbTimeout == 0 {
		hbTimeout = defaultHeartbeatTimeout
	}
	timing := opt.OnTaskTiming != nil
	var timingSeen map[int]bool
	if timing {
		timingSeen = make(map[int]bool, len(tasks))
	}
	// reportTiming delivers one at-most-once timing sample to the observer.
	reportTiming := func(idx int, d time.Duration) {
		if !timing || idx < 0 || idx >= len(tasks) || timingSeen[idx] || d <= 0 {
			return
		}
		timingSeen[idx] = true
		opt.OnTaskTiming(idx, d)
	}
	if opt.Checkpoint != nil && opt.Job == "" {
		return nil, fmt.Errorf("cluster: farm %q: checkpointing requires a job name", name)
	}

	res := &FarmResult{Results: make([][]byte, len(tasks))}
	completed := make([]bool, len(tasks))
	attempts := make([]int, len(tasks))
	lastWorker := make([]int, len(tasks)) // rank whose failure requeued the task
	for i := range lastWorker {
		lastWorker[i] = -1
	}
	done := 0
	tr := s.node.Tracer

	// record appends one checkpoint record; a checkpoint that cannot be
	// written is job-fatal, because the resume guarantee would be silently
	// broken otherwise.
	record := func(rec checkpoint.Record) error {
		if opt.Checkpoint == nil {
			return nil
		}
		rec.Job = opt.Job
		if err := opt.Checkpoint.Append(rec); err != nil {
			return fmt.Errorf("cluster: farm %q checkpoint: %w", name, err)
		}
		tr.Instant(0, "farm.checkpoint", int64(len(rec.Payload)))
		return nil
	}

	// Resume: replay the job's records, marking their tasks finished.
	if opt.Checkpoint != nil {
		recs, err := opt.Checkpoint.Load(opt.Job)
		if err != nil {
			return nil, fmt.Errorf("cluster: farm %q: load checkpoint: %w", name, err)
		}
		for _, rec := range recs {
			if rec.Task < 0 || rec.Task >= len(tasks) || completed[rec.Task] {
				continue
			}
			switch rec.Kind {
			case checkpoint.KindResult:
				res.Results[rec.Task] = rec.Payload
			case checkpoint.KindFailed:
				res.Failed = append(res.Failed, TaskFailure{
					Task: rec.Task, Attempts: rec.Attempts, Err: string(rec.Payload),
				})
			default:
				continue
			}
			completed[rec.Task] = true
			done++
			res.Resumed++
		}
		if res.Resumed > 0 {
			tr.Instant(0, "farm.resume", int64(res.Resumed))
		}
	}

	// failTask applies the per-task failure policy: count the attempt,
	// requeue for another worker, quarantine once the budget is spent.
	var queue []int
	failTask := func(idx, worker int, msg string) error {
		attempts[idx]++
		tr.Instant(0, "farm.task-fail", int64(idx))
		if attempts[idx] >= maxAttempts {
			if err := record(checkpoint.Record{
				Task: idx, Kind: checkpoint.KindFailed,
				Attempts: attempts[idx], Payload: []byte(msg),
			}); err != nil {
				return err
			}
			res.Failed = append(res.Failed, TaskFailure{Task: idx, Attempts: attempts[idx], Err: msg})
			completed[idx] = true
			done++
			tr.Instant(0, "farm.quarantine", int64(idx))
			return nil
		}
		lastWorker[idx] = worker
		queue = append(queue, idx)
		res.Retried++
		return nil
	}
	// finishTask records and stores one successful result.
	finishTask := func(idx int, out []byte) error {
		if err := record(checkpoint.Record{Task: idx, Kind: checkpoint.KindResult, Payload: out}); err != nil {
			return err
		}
		res.Results[idx] = out
		completed[idx] = true
		done++
		return nil
	}

	// Dispatch the kernel to the workers.
	var lost []int
	if s.node.cfg.Reliable == nil {
		if _, err := mpi.BcastT(s.node.Comm, 0, stringCodec(), name); err != nil {
			return nil, fmt.Errorf("cluster: farm %q dispatch: %w", name, err)
		}
	} else {
		var err error
		lost, err = s.dispatch(name)
		if err != nil {
			return nil, fmt.Errorf("cluster: farm %q dispatch: %w", name, err)
		}
	}
	res.Lost = lost
	lostAtDispatch := make(map[int]bool, len(lost))
	for _, w := range lost {
		lostAtDispatch[w] = true
	}

	alive := make(map[int]bool)
	for w := 1; w < s.node.Nodes(); w++ {
		alive[w] = true
	}
	for _, w := range lost {
		delete(alive, w)
	}

	for i := range tasks {
		if !completed[i] {
			queue = append(queue, i)
		}
	}
	// Liveness bookkeeping runs on the fabric clock: with an injected
	// Config.Clock, heartbeat retirement is a function of fabric time
	// (provable under a simulated clock), not of wall-clock scheduling.
	clk := s.fabric.Clock()
	ep := s.fabric.Endpoint(0) // the master idles on its own mailbox
	busy := map[int]int{}      // worker rank → in-flight task index
	lastSeen := map[int]time.Time{}
	now := clk.Now()
	for w := range alive {
		lastSeen[w] = now
	}

	// loseWorker retires w and requeues its in-flight task, front of line.
	loseWorker := func(w int) {
		if idx, ok := busy[w]; ok {
			queue = append([]int{idx}, queue...)
			res.Reassigned++
			delete(busy, w)
		}
		delete(alive, w)
		res.Lost = append(res.Lost, w)
		tr.Instant(0, "farm.retire", int64(w))
	}
	// assign hands a queued task to w, preferring one w has not just
	// failed (so a flaky task's retry lands on another worker when one
	// exists). A lost worker is retired (its task stays queued); any
	// other send failure is job-fatal.
	assign := func(w int) error {
		pick := 0
		for i, idx := range queue {
			if lastWorker[idx] != w {
				pick = i
				break
			}
		}
		idx := queue[pick]
		if err := s.node.Comm.SendCtx(ctx, w, farmTaskTag, encodeTask(false, idx, tasks[idx], timing)); err != nil {
			if errors.Is(err, mpi.ErrRankLost) || errors.Is(err, transport.ErrCrashed) {
				loseWorker(w)
				return nil
			}
			return err
		}
		queue = append(queue[:pick], queue[pick+1:]...)
		busy[w] = idx
		lastSeen[w] = clk.Now()
		return nil
	}

	finish := func() (*FarmResult, error) {
		// Release the workers back to the kernel-dispatch loop: every
		// rank that received the dispatch — including retired-but-alive
		// ones — is still blocked in its task loop and needs the stop
		// frame. Sends to dead ranks fail tolerably.
		for w := 1; w < s.node.Nodes(); w++ {
			if lostAtDispatch[w] {
				continue
			}
			if err := s.node.Comm.Send(w, farmTaskTag, encodeTask(true, 0, nil, false)); err != nil &&
				!errors.Is(err, mpi.ErrRankLost) && !errors.Is(err, transport.ErrCrashed) {
				return res, fmt.Errorf("cluster: farm %q stop: %w", name, err)
			}
		}
		sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Task < res.Failed[j].Task })
		return res, nil
	}

	for done < len(tasks) {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("cluster: farm %q: %w", name, err)
		}
		// Read before draining: whatever lands after the drains below moves
		// the generation, so the wait at the bottom cannot sleep through it.
		gen := ep.Gen()

		// Keep every idle live worker fed.
		for len(queue) > 0 {
			idle := -1
			for w := range alive {
				if _, b := busy[w]; !b {
					idle = w
					break
				}
			}
			if idle < 0 {
				break
			}
			if err := assign(idle); err != nil {
				return res, fmt.Errorf("cluster: farm %q assign: %w", name, err)
			}
		}

		// No workers left: the master is its own last resort, under the
		// same per-task failure policy.
		if len(alive) == 0 {
			for len(queue) > 0 {
				if err := ctx.Err(); err != nil {
					return res, fmt.Errorf("cluster: farm %q: %w", name, err)
				}
				idx := queue[0]
				queue = queue[1:]
				taskStart := clk.Now()
				out, ferr := runFarmTask(s.node, fn, tasks[idx])
				if ferr == nil {
					reportTiming(idx, clk.Now().Sub(taskStart))
				}
				if ferr != nil {
					if err := failTask(idx, 0, ferr.Error()); err != nil {
						return res, err
					}
					continue
				}
				if err := finishTask(idx, out); err != nil {
					return res, err
				}
				res.MasterRan++
			}
			continue // done == len(tasks) now; the loop exits
		}

		// Drain heartbeats: each beat refreshes its sender's lastSeen.
		for {
			hm, ok, err := s.node.Comm.TryRecv(transport.AnySource, farmBeatTag)
			if err != nil {
				return res, fmt.Errorf("cluster: farm %q heartbeat drain: %w", name, err)
			}
			if !ok {
				break
			}
			lastSeen[hm.Src] = clk.Now()
			if idx, d, tok := decodeTiming(hm.Payload); tok {
				reportTiming(idx, d)
			}
		}

		m, ok, err := s.node.Comm.TryRecv(transport.AnySource, farmResultTag)
		if err != nil {
			return res, fmt.Errorf("cluster: farm %q collect: %w", name, err)
		}
		if ok {
			lastSeen[m.Src] = clk.Now()
			r := serial.NewReader(m.Payload)
			idx := r.Int()
			okTask := r.Bool()
			var taskErr string
			var out []byte
			if okTask {
				out = r.RawBytes()
			} else {
				taskErr = r.String()
			}
			if r.Err() != nil || idx < 0 || idx >= len(tasks) {
				return res, fmt.Errorf("cluster: farm %q: malformed result from node %d", name, m.Src)
			}
			if b, inFlight := busy[m.Src]; inFlight && b == idx {
				delete(busy, m.Src)
			}
			if completed[idx] {
				// A worker retired as silent may still deliver: its task
				// was reassigned and already finished elsewhere. Drop the
				// duplicate.
				continue
			}
			// A late result for a requeued task is still a first-class
			// outcome; pull the task back out of the queue.
			for i, q := range queue {
				if q == idx {
					queue = append(queue[:i], queue[i+1:]...)
					break
				}
			}
			if okTask {
				if err := finishTask(idx, out); err != nil {
					return res, err
				}
			} else {
				if err := failTask(idx, m.Src, fmt.Sprintf("node %d: %s", m.Src, taskErr)); err != nil {
					return res, err
				}
			}
			continue
		}

		// Nothing arrived: sweep for deaths the fabric already knows
		// about and for workers gone heartbeat-silent, noting when the
		// next survivor's silence would run out.
		var toLose []int
		var nextExpiry time.Time
		now := clk.Now()
		for w := range alive {
			if s.fabric.Crashed(w) {
				toLose = append(toLose, w)
				continue
			}
			if hbTimeout <= 0 {
				continue
			}
			expiry := lastSeen[w].Add(hbTimeout)
			if !now.Before(expiry) {
				tr.Instant(0, "farm.heartbeat-miss", int64(w))
				toLose = append(toLose, w)
			} else {
				nextExpiry = transport.Sooner(nextExpiry, expiry)
			}
		}
		for _, w := range toLose {
			loseWorker(w)
		}
		// Idle until a frame arrives, a peer crashes, ctx is cancelled (the
		// top of the loop reports it) or the earliest heartbeat expires.
		if len(toLose) == 0 && ep.Wait(ctx, gen, nextExpiry) == transport.WaitClosed {
			return res, fmt.Errorf("cluster: farm %q collect: %w", name, transport.ErrClosed)
		}
	}

	return finish()
}

// FarmT is the typed farm wrapper: codecs on both ends, same supervision
// semantics. Quarantined tasks decode to R's zero value; consult
// FarmResult.Failed before trusting those entries.
func FarmT[T, R any](s *Session, name string, tc serial.Codec[T], rc serial.Codec[R], tasks []T) ([]R, *FarmResult, error) {
	raw := make([][]byte, len(tasks))
	for i, t := range tasks {
		raw[i] = serial.Marshal(tc, t)
	}
	fr, err := s.Farm(name, raw)
	if err != nil {
		return nil, fr, err
	}
	failed := make(map[int]bool, len(fr.Failed))
	for _, f := range fr.Failed {
		failed[f.Task] = true
	}
	out := make([]R, len(fr.Results))
	for i, b := range fr.Results {
		if failed[i] {
			continue
		}
		v, err := serial.Unmarshal(rc, b)
		if err != nil {
			return nil, fr, fmt.Errorf("cluster: farm %q decode task %d: %w", name, i, err)
		}
		out[i] = v
	}
	return out, fr, nil
}
