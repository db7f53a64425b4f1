// The task ledger: one job's per-task bookkeeping and the only place the
// failure ladder is written down — replay, write-ahead, first-wins,
// duplicate drop, lost-worker requeue, retry-then-quarantine; each method
// below states the rule it owns, and DESIGN.md §7 lists the six together.
// Both Mux clients, Session.FarmOpts and the job service, hold one Ledger per
// job and differ only in the parameters they open it with.
//
// A Ledger is not safe for concurrent use: its owner serializes access (the
// farm loop's goroutine, the service's mutex).
package cluster

import (
	"slices"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/transport"
)

// Verdict is what Observe made of one execution outcome.
type Verdict uint8

const (
	// VerdictDuplicate: the task is already settled, or the outcome is not
	// this run's. Nothing changes but the retired attempt.
	VerdictDuplicate Verdict = iota
	// VerdictRetry: the failed attempt was counted and the task requeued.
	VerdictRetry
	// VerdictResult: the task succeeded; append the record, then Commit.
	VerdictResult
	// VerdictQuarantine: the ladder is spent; append the record, then Commit.
	VerdictQuarantine
	// VerdictMalformed: the outcome names a task index this run does not
	// have. Nothing changes; only a corrupt frame says so, and the owner
	// fails its run.
	VerdictMalformed
)

// attempt is one dispatched execution that has not reported back.
type attempt struct {
	worker, task int32
	start        time.Time // fabric clock
}

// taskState is one task's rung on the ladder.
type taskState struct {
	attempts   int32
	lastWorker int32           // rank whose failed attempt requeued the task, -1 for none
	outcome    checkpoint.Kind // 0 until settled, then KindResult or KindFailed
	pin        int16           // the one rank that may run the task (FarmOptions.Pin), -1 for any
}

// Ledger is one job's task table. All per-task state, the in-flight table
// included, is sized once, at NewLedger; backoff release times are
// allocated when the first retry needs one.
type Ledger struct {
	// FarmResult is the job's outcome so far, in the shape Session.FarmOpts
	// returns it. The ledger keeps Results, Failed (in settle order),
	// Reassigned, Retried (what the retry budget is charged) and Resumed;
	// Lost and MasterRan are its owner's to record.
	FarmResult

	job, kernel string
	tasks       [][]byte
	maxAttempts int
	retryBudget int
	backoff     func(attempt int) time.Duration

	state     []taskState
	queue     []int       // unsettled tasks awaiting dispatch, in order
	notBefore []time.Time // per-task backoff release, nil until first used
	inflight  []attempt
	settled   int
}

// NewLedger opens the ledger of job: every task of tasks pending, to run
// under kernel. A task is quarantined after maxAttempts failed executions,
// or at its next failure once the job has spent retryBudget retries;
// backoff(n) is how long a task waits after its n-th failed attempt (nil:
// not at all).
func NewLedger(job, kernel string, tasks [][]byte, maxAttempts, retryBudget int, backoff func(attempt int) time.Duration) *Ledger {
	l := &Ledger{
		FarmResult: FarmResult{Results: make([][]byte, len(tasks))},
		job:        job, kernel: kernel, tasks: tasks,
		maxAttempts: maxAttempts, retryBudget: retryBudget, backoff: backoff,
		state:    make([]taskState, len(tasks)),
		queue:    make([]int, len(tasks)),
		inflight: make([]attempt, 0, len(tasks)),
	}
	for i := range tasks {
		l.queue[i] = i
		l.state[i].lastWorker, l.state[i].pin = -1, -1
	}
	return l
}

// Replay settles one task from a record read back from the store, without
// executing it, and reports whether the record counted: one Commit would
// refuse — index out of range, not a task outcome, task already settled — is
// ignored.
func (l *Ledger) Replay(rec checkpoint.Record) bool {
	if !l.Commit(rec) {
		return false
	}
	l.Resumed++
	return true
}

// Commit settles rec's task once rec is durable; until then the task does
// not count. The first record committed for a task stands: Commit reports
// false, changing nothing, when the task is already settled or rec is not a
// task outcome of this job.
func (l *Ledger) Commit(rec checkpoint.Record) bool {
	if rec.Task < 0 || rec.Task >= len(l.state) || l.state[rec.Task].outcome != 0 {
		return false
	}
	switch rec.Kind {
	case checkpoint.KindResult:
		l.Results[rec.Task] = rec.Payload
	case checkpoint.KindFailed:
		l.Failed = append(l.Failed, TaskFailure{Task: rec.Task, Attempts: rec.Attempts, Err: string(rec.Payload)})
	default:
		return false
	}
	l.state[rec.Task].outcome = rec.Kind
	l.unqueue(rec.Task)
	l.settled++
	if l.settled == len(l.state) {
		l.inflight = nil // whatever is still out can only report duplicates
	}
	return true
}

// released reports whether task t's backoff, if any, is over at now.
func (l *Ledger) released(t int, now time.Time) bool {
	return l.notBefore == nil || !l.notBefore[t].After(now)
}

// Ready reports whether a task is dispatchable at fabric time now.
func (l *Ledger) Ready(now time.Time) bool {
	return slices.ContainsFunc(l.queue, func(t int) bool { return l.released(t, now) })
}

// Next hands worker (0 is the master) the first queued task whose backoff is
// over, preferring one this worker did not just fail so a flaky task's
// retry lands elsewhere when it can, and records the attempt as in flight
// since now. A pinned task is handed to the rank it is pinned to and to no
// other. ok is false when nothing is dispatchable.
func (l *Ledger) Next(worker int, now time.Time) (a MuxAssignment, ok bool) {
	pick := -1
	for i, t := range l.queue {
		if p := l.state[t].pin; !l.released(t, now) || (p >= 0 && int(p) != worker) {
			continue
		}
		if l.state[t].lastWorker != int32(worker) {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return MuxAssignment{}, false
	}
	t := l.queue[pick]
	l.queue = slices.Delete(l.queue, pick, pick+1)
	l.inflight = append(l.inflight, attempt{worker: int32(worker), task: int32(t), start: now})
	return MuxAssignment{Job: l.job, Kernel: l.kernel, Task: t, Payload: l.tasks[t]}, true
}

// WorkerLost takes back assignment a from a retired worker: the task returns
// to the head of the queue with no attempt spent. It reports whether it did:
// not if a is not an attempt this ledger has in flight on worker, and not if
// the task settled meanwhile.
func (l *Ledger) WorkerLost(worker int, a MuxAssignment) bool {
	if !l.retire(worker, a.Task) || l.state[a.Task].outcome != 0 {
		return false
	}
	l.queue = slices.Insert(l.queue, 0, a.Task)
	l.Reassigned++
	return true
}

// Strand gives up on every unsettled task pinned to a retired worker and
// reports how many there were: no other rank holds what such a task runs on,
// so it settles as failed where it stands — nothing executed, nothing to make
// durable — and its owner reports ErrPinLost. Without pins it does nothing.
func (l *Ledger) Strand(worker int) (stranded int) {
	for t := range l.state {
		if int(l.state[t].pin) == worker && l.Commit(l.Quarantine(t, ErrPinLost.Error())) {
			stranded++
		}
	}
	return stranded
}

// Observe applies one MuxTaskDone event — or a failure its owner declares,
// such as a timeout — to the ladder at fabric time now. The attempt is
// retired; an outcome of a settled task is dropped. A failed attempt is
// counted and the task rejoins the tail of the queue behind its backoff,
// until its attempts or the job's retry budget are spent. For VerdictResult
// and VerdictQuarantine Observe returns the record to make durable before
// Commit; the task stays unsettled until then. An outcome of this run whose
// task index is out of range is VerdictMalformed.
func (l *Ledger) Observe(ev MuxEvent, now time.Time) (Verdict, checkpoint.Record) {
	if ev.Job != l.job {
		// A worker written off during an earlier run woke up and replied;
		// its task index means nothing here.
		return VerdictDuplicate, checkpoint.Record{}
	}
	if ev.Task < 0 || ev.Task >= len(l.state) {
		return VerdictMalformed, checkpoint.Record{}
	}
	l.retire(ev.Worker, ev.Task)
	st := &l.state[ev.Task]
	if st.outcome != 0 {
		return VerdictDuplicate, checkpoint.Record{}
	}
	if ev.OK {
		return VerdictResult, checkpoint.Record{Job: l.job, Task: ev.Task, Kind: checkpoint.KindResult, Payload: ev.Result}
	}
	st.attempts++
	if int(st.attempts) >= l.maxAttempts || l.Retried >= l.retryBudget {
		return VerdictQuarantine, l.Quarantine(ev.Task, ev.Err)
	}
	l.Retried++
	st.lastWorker = int32(ev.Worker)
	// The task may already be queued (its worker was written off before this
	// late failure arrived): it moves to the tail, it is not queued twice.
	l.unqueue(ev.Task)
	l.queue = append(l.queue, ev.Task)
	if l.backoff != nil {
		if l.notBefore == nil {
			l.notBefore = make([]time.Time, len(l.state))
		}
		l.notBefore[ev.Task] = now.Add(l.backoff(int(st.attempts)))
	}
	return VerdictRetry, checkpoint.Record{}
}

// Quarantine returns the record that gives up on task with msg as its final
// error, at the attempts it has consumed so far. Like Observe it only
// proposes: append the record, then Commit.
func (l *Ledger) Quarantine(task int, msg string) checkpoint.Record {
	return checkpoint.Record{
		Job: l.job, Task: task, Kind: checkpoint.KindFailed,
		Attempts: int(l.state[task].attempts), Payload: []byte(msg),
	}
}

// Expired returns an in-flight attempt at least timeout old at now, if there
// is one. The owner declares it failed through Observe, which retires it.
func (l *Ledger) Expired(now time.Time, timeout time.Duration) (worker, task int, ok bool) {
	for _, a := range l.inflight {
		if !now.Before(a.start.Add(timeout)) {
			return int(a.worker), int(a.task), true
		}
	}
	return 0, 0, false
}

// Started restarts, at now, the clock of worker's attempt of task — a Mux
// event's Next — so a task timeout does not count the time the attempt
// waited in the worker's mailbox behind another, of any job.
func (l *Ledger) Started(worker, task int, now time.Time) {
	for i, a := range l.inflight {
		if int(a.worker) == worker && int(a.task) == task {
			l.inflight[i].start = now
		}
	}
}

// Deadline is the earliest instant after now at which the ledger changes
// with nothing arriving: an in-flight attempt reaching timeout (0: never)
// or a queued task's backoff release. Zero means none.
func (l *Ledger) Deadline(now time.Time, timeout time.Duration) (at time.Time) {
	if timeout > 0 {
		for _, a := range l.inflight {
			at = transport.Sooner(at, a.start.Add(timeout))
		}
	}
	for _, t := range l.queue {
		if !l.released(t, now) {
			at = transport.Sooner(at, l.notBefore[t])
		}
	}
	return at
}

// retire drops worker's in-flight attempt of task, if it has one.
func (l *Ledger) retire(worker, task int) bool {
	for i, a := range l.inflight {
		if int(a.worker) == worker && int(a.task) == task {
			l.inflight = slices.Delete(l.inflight, i, i+1)
			return true
		}
	}
	return false
}

// unqueue pulls task out of the pending queue if it is there.
func (l *Ledger) unqueue(task int) {
	if i := slices.Index(l.queue, task); i >= 0 {
		l.queue = slices.Delete(l.queue, i, i+1)
	}
}

// Settled counts tasks with a final outcome (result or quarantine).
func (l *Ledger) Settled() int { return l.settled }

// Completed reports whether task settled with a result.
func (l *Ledger) Completed(task int) bool { return l.state[task].outcome == checkpoint.KindResult }

// Attempts is how many failed executions task has consumed.
func (l *Ledger) Attempts(task int) int { return int(l.state[task].attempts) }

// Pending lists the tasks awaiting dispatch, in queue order. The slice is
// the ledger's own: read it before the next call that changes the ledger.
func (l *Ledger) Pending() []int { return l.queue }

// InFlight counts attempts dispatched and not yet reported, lost or expired.
func (l *Ledger) InFlight() int { return len(l.inflight) }
