// Task farm: the fault-tolerant counterpart of the collective skeletons.
// Collective kernels (scatter → compute → reduce) need every rank alive
// for the whole call; the farm instead streams independent tasks to
// workers, a couple at a time each, so when a worker is lost mid-run (ack
// timeouts, a fabric-reported crash, or a silent heartbeat) the master
// requeues that worker's in-flight tasks, keeps going with the survivors,
// and — if every worker dies — runs the remainder itself.
//
// The mechanism — dispatch, the worker loop, result collection, liveness,
// the master fallback — is the Mux (farmmux.go); the per-task failure
// policy is the Ledger (ledger.go). This file joins the two for a single
// job, cancellable through a context. The session degrades gracefully and
// reports the partial failure in FarmResult instead of deadlocking, which is
// exactly the behavior the paper's lossless-MPI runtime cannot offer (§3.4).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/transport"
)

// FarmFn is a farm kernel body: one task in, one result out. It runs on
// whichever node the task lands on (a worker, or the master as fallback).
type FarmFn func(n *Node, task []byte) ([]byte, error)

var farmKernels = kernels[FarmFn]{what: "farm kernel"}

// RegisterFarm installs a named farm kernel, under RegisterWorker's rules.
// The same body is used worker-side (task loop) and master-side (fallback
// execution).
func RegisterFarm(name string, fn FarmFn) { farmKernels.register(name, fn) }

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
	// Lost lists, in rank order, the worker ranks that died, stopped
	// acknowledging, or went heartbeat-silent and were retired.
	Lost []int
	// Reassigned counts tasks that were requeued off a lost worker.
	Reassigned int
	// Retried counts task re-executions caused by per-task failures.
	Retried int
	// MasterRan counts tasks the master executed itself: those pinned to
	// rank 0 (FarmOptions.Pin), and every task it ran because no worker
	// remained alive.
	MasterRan int
	// Resumed counts tasks restored from the checkpoint store instead of
	// executed (results and previously quarantined failures both).
	Resumed int
}

// ErrPinLost is what a farm call returns, wrapped, when a worker was retired
// with tasks pinned to it unfinished (FarmOptions.Pin): every other task ran
// to its end, the stranded ones are listed in FarmResult.Failed.
var ErrPinLost = errors.New("cluster: pinned worker lost")

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
	// arriving for this long, requeueing its in-flight tasks — the
	// failure detector for silent workers the fabric does not report as
	// crashed. 0 means the default 500ms; negative disables heartbeat
	// retirement (crash detection still applies).
	HeartbeatTimeout time.Duration
	// OnTaskTiming, when non-nil, receives each successful task's kernel
	// time, measured on the executing node's fabric clock and carried
	// back on the result frame. It is called at most once per task (for
	// the execution that settled it, and only for a positive duration), on
	// the master's farm loop. This is AutoPar's recalibration feed.
	OnTaskTiming func(task int, elapsed time.Duration)
	// Pin, when non-nil, names for every task the one rank that may run it —
	// 0 is the master itself — because only that node holds what the task
	// works on (Node.Segs) or because the caller places its work there. A
	// pinned task is never reassigned: if its rank is retired first, the call
	// ends with ErrPinLost. The master runs its own one per farm-loop turn.
	Pin []int
}

const (
	defaultMaxAttempts      = 3
	defaultHeartbeatTimeout = 500 * time.Millisecond
)

// Farm runs the named farm kernel over tasks with default supervision and
// returns every result. Tasks are streamed to workers as they free a slot
// (self-balancing, like the paper's Eden two-level parMap but
// demand-driven); a lost worker's in-flight tasks are reassigned to a
// survivor. Farm succeeds as long as the master survives — with zero live
// workers it computes the remaining tasks locally — and FarmResult records
// how degraded the run was.
func (s *Session) Farm(name string, tasks [][]byte) (*FarmResult, error) {
	return s.FarmOpts(name, tasks, FarmOptions{})
}

// FarmOpts is Farm under explicit supervision options: cancellation,
// checkpoint/resume, and per-task failure policy. See FarmOptions.
//
// It is the single-job client of the Mux: one Ledger (ledger.go) holds the
// failure ladder, and this loop replays the job's checkpoint into it, keeps
// every free worker slot fed from it, settles one Mux event per turn through
// it — a checkpointed outcome is appended to the store before it is
// committed — or, on a turn with none, runs one of the master's own tasks,
// and idles on the master's mailbox when there is neither.
func (s *Session) FarmOpts(name string, tasks [][]byte, opt FarmOptions) (*FarmResult, error) {
	if _, ok := farmKernels.lookup(name); !ok {
		return nil, fmt.Errorf("cluster: farm kernel %q not registered", name)
	}
	if opt.Checkpoint != nil && opt.Job == "" {
		return nil, fmt.Errorf("cluster: farm %q: checkpointing requires a job name", name)
	}
	ctx := opt.Context
	if ctx == nil {
		// Inherit the session context (RunCtx), so cancelling the run
		// unwinds an optionless Farm too.
		ctx = s.node.Comm.Context()
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = defaultMaxAttempts
	}
	if opt.Pin != nil && (len(opt.Pin) != len(tasks) ||
		slices.ContainsFunc(opt.Pin, func(p int) bool { return p < 0 || p >= s.node.Nodes() || p > math.MaxInt16 })) {
		return nil, fmt.Errorf("cluster: farm %q: pins %v for %d tasks on %d nodes", name, opt.Pin, len(tasks), s.node.Nodes())
	}
	tr := s.node.Tracer
	// The ledger is named for this call, not for opt.Job: the name stamps
	// assignments on the wire, so a straggler's result from an earlier call
	// on the session is told apart from this call's task of the same index.
	// A farm call retries without a job-wide budget and without backoff.
	s.farmRuns++
	run := "\x00farm" + strconv.Itoa(s.farmRuns)
	l := NewLedger(run, name, tasks, opt.MaxAttempts, math.MaxInt, nil)
	for t, p := range opt.Pin {
		l.state[t].pin = int16(p)
	}
	res := &l.FarmResult // returned as it stands, partial, when the run fails
	stranded := 0        // tasks given up because their pinned worker was retired
	if opt.Checkpoint != nil {
		recs, err := opt.Checkpoint.Load(opt.Job)
		if err != nil {
			return nil, fmt.Errorf("cluster: farm %q: load checkpoint: %w", name, err)
		}
		for _, rec := range recs {
			l.Replay(rec)
		}
		if res.Resumed > 0 {
			tr.Instant(0, "farm.resume", int64(res.Resumed))
		}
	}
	mux, err := s.OpenMux(MuxOptions{HeartbeatTimeout: opt.HeartbeatTimeout})
	if err != nil {
		return nil, fmt.Errorf("cluster: farm %q: %w", name, err)
	}

	clk := s.fabric.Clock()
	// settle applies one Mux observation to the ledger.
	settle := func(ev MuxEvent) error {
		if ev.Kind == MuxWorkerLost {
			res.Lost = append(res.Lost, ev.Worker)
			for _, a := range slices.Backward(ev.Requeued) { // each goes to the head: oldest ends first
				l.WorkerLost(ev.Worker, a)
			}
			stranded += l.Strand(ev.Worker)
			return nil
		}
		if ev.Job == run && ev.Task >= len(tasks) {
			return fmt.Errorf("cluster: farm %q: malformed result from node %d", name, ev.Worker)
		}
		verdict, rec := l.Observe(ev, clk.Now())
		if verdict == VerdictDuplicate {
			return nil
		}
		if !ev.OK {
			tr.Instant(0, "farm.task-fail", int64(ev.Task))
		}
		if verdict == VerdictRetry {
			return nil
		}
		if opt.Checkpoint != nil {
			// A checkpoint that cannot be written is job-fatal: the resume
			// guarantee would be silently broken otherwise.
			rec.Job = opt.Job
			if err := opt.Checkpoint.Append(rec); err != nil {
				return fmt.Errorf("cluster: farm %q checkpoint: %w", name, err)
			}
			tr.Instant(0, "farm.checkpoint", int64(len(rec.Payload)))
		}
		l.Commit(rec)
		if verdict == VerdictQuarantine {
			tr.Instant(0, "farm.quarantine", int64(ev.Task))
			return nil
		}
		if ev.Worker == 0 {
			res.MasterRan++
		}
		// Only the execution that settles a task is reported, so the observer
		// sees each task at most once.
		if opt.OnTaskTiming != nil && ev.Elapsed > 0 {
			opt.OnTaskTiming(ev.Task, ev.Elapsed)
		}
		return nil
	}

	ep := s.fabric.Endpoint(0) // the master idles on its own mailbox
	for l.Settled() < len(tasks) {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("cluster: farm %q: %w", name, err)
		}
		// Read before draining: whatever lands after the Poll below moves
		// the generation, so the wait at the bottom cannot sleep through it.
		gen := ep.Gen()

		// Keep every free worker slot filled. A send to a worker that died
		// retires it inside Assign; its tasks return as a MuxWorkerLost event.
		for _, w := range mux.Idle() {
			a, ok := l.Next(w, clk.Now())
			if !ok {
				continue // nothing for this worker; a pinned task may wait for another
			}
			if err := mux.Assign(ctx, w, a); err != nil {
				return res, fmt.Errorf("cluster: farm %q assign: %w", name, err)
			}
		}

		ev, ok, err := mux.Poll()
		if err != nil {
			return res, fmt.Errorf("cluster: farm %q: %w", name, err)
		}
		if ok {
			// One event per turn: the worker a result frees is fed before
			// the next result is settled (a checkpointed settle is an fsync).
			if err := settle(ev); err != nil {
				return res, err
			}
			continue
		}

		// Nothing arrived: the master runs one task itself, then goes back to
		// feeding and polling, so a worker that finished meanwhile waits at
		// most one task time for its next. Its tasks are those pinned to it,
		// and every task once no worker is left — the last resort, under the
		// same per-task failure policy.
		if mux.Workers() == 0 || opt.Pin != nil {
			if a, ok := l.Next(0, clk.Now()); ok {
				if err := settle(mux.RunLocal(a)); err != nil {
					return res, err
				}
				continue
			}
		}

		// Idle until a frame arrives, a peer crashes, ctx is cancelled (the
		// top of the loop reports it), the earliest heartbeat expires or an
		// unacknowledged assignment is due again (the next Poll resends it).
		if s.node.Comm.Idle(ctx, gen, mux.NextExpiry()) == transport.WaitClosed {
			return res, fmt.Errorf("cluster: farm %q collect: %w", name, transport.ErrClosed)
		}
	}

	if err := mux.Close(); err != nil {
		return res, fmt.Errorf("cluster: farm %q: %w", name, err)
	}
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Task < res.Failed[j].Task })
	slices.Sort(res.Lost) // workers crashing together are found in whatever order they died
	if stranded > 0 {
		return res, fmt.Errorf("cluster: farm %q: %d tasks stranded: %w", name, stranded, ErrPinLost)
	}
	return res, nil
}
