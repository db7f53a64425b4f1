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
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/trace"
)

// FarmFn is a farm kernel body: one task in, one result out. It runs on
// whichever node the task lands on (a worker, or the master as fallback).
// task is read-only: it may view the frame that delivered it (DESIGN §11).
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

// TaskFailure is one quarantined task: it failed maxAttempts times (on
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
	// Results holds one result per task, in task order, read-only: each
	// may view the frame it arrived in. Entries for quarantined tasks (see
	// Failed) are nil.
	Results [][]byte
	// Failed lists quarantined tasks in task order: tasks whose kernel
	// failed or panicked on every one of their maxAttempts executions.
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
// checkpointing, the fixed retry (maxAttempts) and heartbeat policy.
type FarmOptions struct {
	// Checkpoint, when non-nil, records every finished task (results and
	// quarantined failures) under Job, and resumes the job on startup:
	// tasks with a stored record are not re-executed, and their stored
	// bytes are returned — so a resumed run's results are bit-identical
	// to an uninterrupted one.
	Checkpoint checkpoint.Store
	// Job names this run in the checkpoint store. Required when
	// Checkpoint is set.
	Job string
	// Pin, when non-nil, names for every task the one rank that may run it (0:
	// the master) because only that node holds what it works on (Node.Segs) or
	// the caller places it there. A pinned task is never reassigned: if its rank
	// is retired first, the call ends with ErrPinLost. Workers get theirs when
	// the call starts (pinDepth at a time), the master one per farm-loop turn.
	Pin []int
}

// maxAttempts is the number of times one farm task may execute before it is
// quarantined in FarmResult.Failed.
const maxAttempts = 3

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

// FarmOpts is Farm under explicit supervision options: checkpoint/resume
// and per-task failure policy. See FarmOptions. Cancelling the session's
// context (RunCtx) ends the call with ctx.Err() and partial results; its
// workers are abandoned mid-protocol, so the session is over.
//
// It is the single-job client of the Mux: one Ledger (ledger.go) holds the
// failure ladder, this call replays the job's checkpoint into it, and
// Mux.Drive runs the master loop under farmPolicy.
func (s *Session) FarmOpts(name string, tasks [][]byte, opt FarmOptions) (*FarmResult, error) {
	if _, ok := farmKernels.lookup(name); !ok {
		return nil, fmt.Errorf("cluster: farm kernel %q not registered", name)
	}
	if opt.Checkpoint != nil && opt.Job == "" {
		return nil, fmt.Errorf("cluster: farm %q: checkpointing requires a job name", name)
	}
	if opt.Pin != nil && (len(opt.Pin) != len(tasks) ||
		slices.ContainsFunc(opt.Pin, func(p int) bool { return p < 0 || p >= s.node.Nodes() || p > math.MaxInt16 })) {
		return nil, fmt.Errorf("cluster: farm %q: pins %v for %d tasks on %d nodes", name, opt.Pin, len(tasks), s.node.Nodes())
	}
	// The ledger is named for this call, not for opt.Job: the name stamps
	// assignments on the wire, so a straggler's result from an earlier call
	// on the session is told apart from this call's task of the same index.
	// A farm call retries without a job-wide budget and without backoff.
	s.farmRuns++
	run := "\x00farm" + strconv.Itoa(s.farmRuns)
	p := &farmPolicy{l: NewLedger(run, name, tasks, maxAttempts, math.MaxInt, nil), tr: s.node.Tracer, opt: opt}
	for t, pin := range opt.Pin {
		p.l.state[t].pin = int16(pin)
	}
	res := &p.l.FarmResult // returned as it stands, partial, when the run fails
	if opt.Checkpoint != nil {
		recs, err := opt.Checkpoint.Load(opt.Job)
		if err != nil {
			return nil, fmt.Errorf("cluster: farm %q: load checkpoint: %w", name, err)
		}
		for _, rec := range recs {
			p.l.Replay(rec)
		}
		if res.Resumed > 0 {
			p.tr.Instant(0, "farm.resume", int64(res.Resumed))
		}
	}
	mux, err := s.OpenMux(MuxOptions{})
	if err != nil {
		return nil, fmt.Errorf("cluster: farm %q: %w", name, err)
	}
	if opt.Pin != nil {
		mux.depth = pinDepth // the first turn ships every worker its share
	}
	if err := mux.Drive(s.node.Comm.Context(), p); err != nil {
		return res, fmt.Errorf("cluster: farm %q: %w", name, err)
	}
	if err := mux.Close(); err != nil {
		return res, fmt.Errorf("cluster: farm %q: %w", name, err)
	}
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Task < res.Failed[j].Task })
	slices.Sort(res.Lost) // workers crashing together are found in whatever order they died
	if p.stranded > 0 {
		return res, fmt.Errorf("cluster: farm %q: %d tasks stranded: %w", name, p.stranded, ErrPinLost)
	}
	return res, nil
}

// farmPolicy is FarmOpts' policy over Mux.Drive: one ledger, every free slot
// fed from it in Idle's order, its outcomes traced and checkpointed.
type farmPolicy struct {
	l        *Ledger
	tr       *trace.Tracer
	opt      FarmOptions
	stranded int // tasks given up because their pinned worker was retired
}

func (p *farmPolicy) Dispatch(idle []int, now time.Time, assign func(int, MuxAssignment) error) error {
	for _, w := range idle {
		if a, ok := p.l.Next(w, now); ok { // none for w: a pinned task may wait for another
			if err := assign(w, a); err != nil {
				return fmt.Errorf("assign: %w", err)
			}
		}
	}
	return nil
}

func (p *farmPolicy) Settle(ev MuxEvent, now time.Time) error {
	l := p.l
	if ev.Kind == MuxWorkerLost {
		l.Lost = append(l.Lost, ev.Worker)
		for _, a := range slices.Backward(ev.Requeued) { // each goes to the head: oldest ends first
			l.WorkerLost(ev.Worker, a)
		}
		p.stranded += l.Strand(ev.Worker)
		return nil
	}
	verdict, rec := l.Observe(ev, now)
	switch verdict {
	case VerdictMalformed:
		return fmt.Errorf("malformed result from node %d", ev.Worker)
	case VerdictDuplicate:
		return nil
	}
	if !ev.OK {
		p.tr.Instant(0, "farm.task-fail", int64(ev.Task))
	}
	if verdict == VerdictRetry {
		return nil
	}
	if p.opt.Checkpoint != nil {
		// A checkpoint that cannot be written is job-fatal: the resume
		// guarantee would be silently broken otherwise.
		rec.Job = p.opt.Job
		if err := p.opt.Checkpoint.Append(rec); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		p.tr.Instant(0, "farm.checkpoint", int64(len(rec.Payload)))
	}
	l.Commit(rec)
	if verdict == VerdictQuarantine {
		p.tr.Instant(0, "farm.quarantine", int64(ev.Task))
	} else if ev.Worker == 0 {
		l.MasterRan++
	}
	return nil
}

// Deadline is never: a farm call has no backoff and no task timeout.
func (p *farmPolicy) Deadline(time.Time) time.Time { return time.Time{} }

func (p *farmPolicy) Done() bool { return p.l.Settled() == len(p.l.state) }
