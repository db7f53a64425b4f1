package jobs

import (
	"context"
	"fmt"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/transport"
)

// Serve attaches the service to a cluster session and runs jobs until the
// context is cancelled (a crash, from the registry's point of view: nothing
// is flushed, resume happens on the next NewService over the same store) or
// Stop has been called and every admitted job is terminal (graceful drain).
// Serve owns the Mux and all dispatching; there is at most one Serve per
// service at a time, running in the cluster master goroutine.
func (s *Service) Serve(ctx context.Context, sess *cluster.Session) error {
	mux, err := sess.OpenMux(cluster.MuxOptions{HeartbeatTimeout: s.cfg.HeartbeatTimeout})
	if err != nil {
		return err
	}
	defer func() {
		s.mu.Lock()
		s.serving = false
		s.ep = nil
		s.mu.Unlock()
		mux.Close() // on a cancelled context the stop frames fail tolerably
	}()
	clk := sess.Fabric().Clock()
	// The loop idles on the master's mailbox; Submit and Stop wake it there.
	ep := sess.Fabric().Endpoint(0)
	s.mu.Lock()
	s.serving = true
	s.ep = ep
	// A job whose last task records reached the registry but whose summary
	// did not (a crash in the gap) finishes now, without re-execution.
	settled := make([]*job, 0)
	for _, name := range s.order {
		j := s.jobs[name]
		if !j.state.Terminal() && j.settled() == len(j.spec.Tasks) {
			settled = append(settled, j)
		}
	}
	s.mu.Unlock()
	for _, j := range settled {
		s.mu.Lock()
		if err := s.maybeCompleteLocked(j); err != nil {
			return err
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Read before looking: a frame, Submit or Stop landing after this
		// moves the generation, so the wait at the bottom cannot miss it.
		gen := ep.Gen()
		progress := false

		// Drain every pending Mux observation.
		for {
			ev, ok, perr := mux.Poll()
			if perr != nil {
				return perr
			}
			if !ok {
				break
			}
			progress = true
			if herr := s.handleEvent(ev, clk.Now()); herr != nil {
				return herr
			}
		}

		// Reassign attempts that outlived their per-job task timeout.
		if serr := s.sweepTimeouts(clk.Now()); serr != nil {
			return serr
		}

		// Degrade jobs that crossed their declared byte budget: their
		// still-pending tasks quarantine with a QuotaError message.
		if qerr := s.sweepQuotas(clk.Now()); qerr != nil {
			return qerr
		}

		// Fair-share dispatch onto idle, non-draining workers.
		now := clk.Now()
		n, derr := s.dispatch(ctx, mux, now)
		if derr != nil {
			return derr
		}
		progress = progress || n > 0

		// Master fallback: with every worker retired the master executes
		// one ready task per iteration itself — degraded throughput, but
		// jobs still reach a terminal state.
		if mux.Workers() == 0 {
			ranLocal, lerr := s.runLocalOnce(mux, now)
			if lerr != nil {
				return lerr
			}
			progress = progress || ranLocal
		}

		s.mu.Lock()
		s.workers = mux.Workers()
		s.draining = s.draining[:0]
		for _, w := range mux.Idle() {
			if s.drainingLocked(w) {
				s.draining = append(s.draining, w)
			}
		}
		stopNow := s.stopped && s.liveLocked() == 0
		s.mu.Unlock()
		if stopNow {
			return nil
		}
		// Idle until a frame arrives, Submit or Stop wakes us, ctx is
		// cancelled (the top of the loop reports it) or the fabric clock
		// reaches the next heartbeat expiry, task timeout or backoff release.
		if !progress && ep.Wait(ctx, gen, s.nextDeadline(now, mux.NextExpiry())) == transport.WaitClosed {
			return transport.ErrClosed
		}
	}
}

// nextDeadline is the earliest fabric-clock instant at which the serve loop
// must act with nothing arriving: at (the Mux's next heartbeat expiry), an
// in-flight attempt's task timeout, or a retry-backoff release after now (one
// at or before now only waits for a worker, whose result wakes the loop).
func (s *Service) nextDeadline(now, at time.Time) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.state.Terminal() {
			continue
		}
		if j.spec.TaskTimeout > 0 {
			for _, fl := range j.inflight {
				at = transport.Sooner(at, fl.start.Add(j.spec.TaskTimeout))
			}
		}
		for _, rel := range j.notBefore {
			if rel.After(now) {
				at = transport.Sooner(at, rel)
			}
		}
	}
	return at
}

// launchLocked records scheduler decision p as an attempt in flight.
// Callers hold s.mu.
func (p plannedDispatch) launchLocked(now time.Time) {
	p.job.inflight[p.task] = inflight{worker: p.worker, start: now}
	p.job.bytesIn += int64(len(p.job.spec.Tasks[p.task]))
	p.job.markRunningLocked(now)
}

// assignment is p as the Mux ships it. It reads only the job's spec, which
// is immutable once admitted, so it needs no lock.
func (p plannedDispatch) assignment() cluster.MuxAssignment {
	sp := &p.job.spec
	return cluster.MuxAssignment{Job: sp.Name, Kernel: sp.Kernel, Task: p.task, Payload: sp.Tasks[p.task]}
}

// dispatch runs one scheduling round and ships the plan. The plan is built
// and recorded under the service mutex; the sends happen outside it so a
// slow acknowledged send does not block Submit or the status surface.
func (s *Service) dispatch(ctx context.Context, mux *cluster.Mux, now time.Time) (int, error) {
	s.mu.Lock()
	plan := s.schedule(now, s.usableWorkers(mux.Idle()))
	for _, p := range plan {
		p.launchLocked(now)
	}
	s.mu.Unlock()
	for _, p := range plan {
		// A send to a worker that died retires it inside Assign and the
		// assignment returns through a MuxWorkerLost event for requeueing.
		if err := mux.Assign(ctx, p.worker, p.assignment()); err != nil {
			return 0, fmt.Errorf("jobs: dispatch %q/%d: %w", p.job.spec.Name, p.task, err)
		}
	}
	return len(plan), nil
}

// runLocalOnce executes one ready task on the master (no-workers fallback).
func (s *Service) runLocalOnce(mux *cluster.Mux, now time.Time) (bool, error) {
	s.mu.Lock()
	plan := s.schedule(now, []int{0})
	for _, p := range plan {
		p.launchLocked(now)
	}
	s.mu.Unlock()
	if len(plan) == 0 {
		return false, nil
	}
	return true, s.handleEvent(mux.RunLocal(plan[0].assignment()), now)
}

// attemptFailedLocked climbs the degradation ladder for one failed attempt
// — a kernel error or a timeout — of an unsettled task: count it and, while
// the task's attempts and the job's retry budget remain, put it back in the
// queue behind seeded exponential backoff (front keeps the task's place in
// line; otherwise it joins the end). It reports false when the ladder is
// spent and the caller must quarantine the task. Callers hold s.mu.
func (s *Service) attemptFailedLocked(j *job, task int, front bool, now time.Time) (retry bool) {
	j.attempts[task]++
	attempts := j.attempts[task]
	if attempts >= j.spec.MaxTaskAttempts || j.retriesUsed >= j.spec.RetryBudget {
		return false
	}
	j.retriesUsed++
	if front {
		j.requeueFront(task)
	} else if !contains(j.pending, task) {
		j.pending = append(j.pending, task)
	}
	j.notBefore[task] = now.Add(s.failureBackoff(attempts))
	return true
}

// quarantine is the ladder's final rung, for kernel failures, timeouts and
// quota breaches alike: the KindFailed record is appended first (write-
// ahead, outside the lock like every store write), then the task settles
// as failed and the job may complete degraded with a partial-result report.
// A task something else settled during the append is left as it is.
func (s *Service) quarantine(q quarantined, now time.Time) error {
	if err := s.cfg.Store.Append(checkpoint.Record{
		Job: q.j.spec.Name, Task: q.task, Kind: checkpoint.KindFailed,
		Attempts: q.attempts, Payload: []byte(q.msg),
	}); err != nil {
		return fmt.Errorf("jobs: checkpoint quarantine %q/%d: %w", q.j.spec.Name, q.task, err)
	}
	s.mu.Lock()
	if q.j.state.Terminal() || q.j.settledTask(q.task) {
		s.mu.Unlock()
		return nil
	}
	q.j.failed[q.task] = q.msg
	q.j.pending = removeTask(q.j.pending, q.task)
	delete(q.j.notBefore, q.task)
	q.j.noteSettleLocked(now)
	return s.maybeCompleteLocked(q.j)
}

// quarantined is one task on its way to the final rung.
type quarantined struct {
	j        *job
	task     int
	attempts int
	msg      string
}

// sweepTimeouts reaps attempts whose fabric-clock age exceeds their job's
// TaskTimeout. The slow rank keeps its Mux liveness (it may just be
// overloaded) but pays a health penalty, and a timeout counts as a failed
// attempt on the same degradation ladder as a kernel failure — a task that
// hangs forever must still drive its job to a terminal state instead of
// being reassigned without bound. If the original attempt's result arrives
// later anyway it is deduplicated.
func (s *Service) sweepTimeouts(now time.Time) error {
	var spent []quarantined
	s.mu.Lock()
	for _, name := range s.order {
		j := s.jobs[name]
		if j.state.Terminal() || j.spec.TaskTimeout <= 0 {
			continue
		}
		for task, fl := range j.inflight {
			if now.Before(fl.start.Add(j.spec.TaskTimeout)) {
				continue
			}
			delete(j.inflight, task)
			if j.settledTask(task) {
				// A stale entry: a late or concurrent result settled the
				// task while this attempt was still nominally in flight.
				// Nothing to redo, and the worker owes no penalty.
				continue
			}
			s.noteWorkerFailure(fl.worker)
			if !s.attemptFailedLocked(j, task, true, now) {
				spent = append(spent, quarantined{
					j: j, task: task, attempts: j.attempts[task],
					msg: fmt.Sprintf("task timed out after %v (attempt %d)", j.spec.TaskTimeout, j.attempts[task]),
				})
			}
		}
	}
	s.mu.Unlock()
	for _, q := range spent {
		if err := s.quarantine(q, now); err != nil {
			return err
		}
	}
	return nil
}

// sweepQuotas degrades jobs whose accounted fabric bytes (payloads
// dispatched + results returned) crossed their declared ByteBudget. The
// still-pending tasks quarantine with a QuotaError message, so the job stops
// consuming fabric and completes Degraded once its in-flight attempts settle.
func (s *Service) sweepQuotas(now time.Time) error {
	var over []quarantined
	s.mu.Lock()
	for _, name := range s.order {
		j := s.jobs[name]
		if j.state.Terminal() || len(j.pending) == 0 || !j.overQuotaLocked() {
			continue
		}
		qe := &QuotaError{Job: j.spec.Name, Used: j.bytesIn + j.bytesOut, Budget: j.spec.ByteBudget}
		for _, task := range j.pending {
			over = append(over, quarantined{j: j, task: task, attempts: j.attempts[task], msg: qe.Error()})
		}
	}
	s.mu.Unlock()
	for _, q := range over {
		if err := s.quarantine(q, now); err != nil {
			return err
		}
	}
	return nil
}

// handleEvent applies one Mux observation to the job table.
func (s *Service) handleEvent(ev cluster.MuxEvent, now time.Time) error {
	switch ev.Kind {
	case cluster.MuxWorkerLost:
		s.mu.Lock()
		for _, a := range ev.Requeued {
			j, ok := s.jobs[a.Job]
			if !ok || j.state.Terminal() {
				continue
			}
			fl, infl := j.inflight[a.Task]
			if !infl || fl.worker != ev.Worker {
				continue
			}
			// The attempt record is retired either way; a task that already
			// settled (a late result beat the loss event) must not requeue.
			delete(j.inflight, a.Task)
			if j.settledTask(a.Task) {
				continue
			}
			// Losing the worker is not the task's fault: reassign without
			// burning an attempt, at the head of the queue.
			j.requeueFront(a.Task)
		}
		delete(s.health, ev.Worker)
		s.mu.Unlock()
		return nil
	case cluster.MuxTaskDone:
		return s.handleTaskDone(ev, now)
	default:
		return fmt.Errorf("jobs: unknown mux event kind %d", ev.Kind)
	}
}

// handleTaskDone settles one execution outcome: checkpoint-then-count for
// successes, the degradation ladder for failures, dedup for late arrivals.
func (s *Service) handleTaskDone(ev cluster.MuxEvent, now time.Time) error {
	s.mu.Lock()
	j, known := s.jobs[ev.Job]
	if !known {
		// A stray frame for a job this service does not know (e.g. a
		// submission rolled back after a failed registry append). Drop it:
		// one late result must not kill the Serve loop for every tenant.
		s.mu.Unlock()
		return nil
	}
	if ev.Task < 0 || ev.Task >= len(j.spec.Tasks) {
		s.mu.Unlock()
		return fmt.Errorf("jobs: result for %q task %d out of range", ev.Job, ev.Task)
	}
	if fl, infl := j.inflight[ev.Task]; infl && fl.worker == ev.Worker {
		// Retire this worker's attempt record even when the result below
		// turns out to be a duplicate — otherwise a retry whose task was
		// settled by a late first-attempt result leaves a stale inflight
		// entry for sweepTimeouts to "time out" and re-dispatch forever.
		delete(j.inflight, ev.Task)
	}
	if j.state.Terminal() || j.settledTask(ev.Task) {
		// A duplicate or a late arrival from a timed-out / retired-but-
		// alive worker: the first settlement stands.
		s.mu.Unlock()
		return nil
	}
	j.taskSeconds += ev.Elapsed

	if ev.OK {
		if ev.Worker != 0 {
			s.noteWorkerSuccess(ev.Worker)
		}
		j.bytesOut += int64(len(ev.Result))
		s.mu.Unlock()
		// Write-ahead: the result record must be durable before the task
		// counts as done — the same rule as the single farm.
		if err := s.cfg.Store.Append(checkpoint.Record{
			Job: ev.Job, Task: ev.Task, Kind: checkpoint.KindResult, Payload: ev.Result,
		}); err != nil {
			return fmt.Errorf("jobs: checkpoint %q/%d: %w", ev.Job, ev.Task, err)
		}
		s.mu.Lock()
		j.completed[ev.Task] = ev.Result
		j.pending = removeTask(j.pending, ev.Task)
		delete(j.notBefore, ev.Task)
		j.noteSettleLocked(now)
		return s.maybeCompleteLocked(j)
	}

	// Failure: climb the degradation ladder — retry elsewhere, at the end
	// of the queue, or quarantine.
	if ev.Worker != 0 {
		s.noteWorkerFailure(ev.Worker)
	}
	retry := s.attemptFailedLocked(j, ev.Task, false, now)
	attempts := j.attempts[ev.Task]
	s.mu.Unlock()
	if retry {
		return nil
	}
	return s.quarantine(quarantined{j: j, task: ev.Task, attempts: attempts, msg: ev.Err}, now)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// maybeCompleteLocked finishes a job whose every task is settled: state,
// durable summary, waiter wakeup, and (optionally) registry compaction.
// Called with s.mu held; releases and reacquires it around store writes and
// returns with it released.
func (s *Service) maybeCompleteLocked(j *job) error {
	if j.state.Terminal() || j.settled() < len(j.spec.Tasks) {
		s.mu.Unlock()
		return nil
	}
	state := Done
	if len(j.failed) > 0 {
		state = Degraded
	}
	sum := doneSummary{
		state:       state,
		completed:   len(j.completed),
		failed:      len(j.failed),
		retriesUsed: j.retriesUsed,
		taskSeconds: j.taskSeconds,
		resultCRC:   resultCRC(len(j.spec.Tasks), j.completed),
	}
	name := j.spec.Name
	s.mu.Unlock()
	// The summary is written before the state flips: a crash here resumes
	// the job as live (its last tasks re-settle from their checkpointed
	// records without re-execution), never as half-finished.
	if err := s.cfg.Store.Append(checkpoint.Record{
		Job: name, Kind: checkpoint.KindJobDone, Payload: encodeDone(sum),
	}); err != nil {
		return fmt.Errorf("jobs: record completion of %q: %w", name, err)
	}
	s.mu.Lock()
	j.state = state
	for task := range j.inflight {
		delete(j.inflight, task)
	}
	close(j.done)
	s.completedSinceCompact++
	compact := s.cfg.CompactEvery > 0 && s.completedSinceCompact >= s.cfg.CompactEvery
	if compact {
		s.completedSinceCompact = 0
	}
	known := map[string]bool{}
	live := map[string]bool{}
	if compact {
		for n2, j2 := range s.jobs {
			known[n2] = true
			if !j2.state.Terminal() {
				live[n2] = true
			}
		}
	}
	s.mu.Unlock()
	if !compact {
		return nil
	}
	// Shrink terminal jobs to their summary record alone — the spec (which
	// holds every task input) and the per-task results are what compaction
	// reclaims. Live jobs stay whole, and records the service does not
	// recognize (a farm checkpoint sharing the store) are kept untouched.
	err := s.cfg.Store.Compact(func(rec checkpoint.Record) bool {
		return !known[rec.Job] || live[rec.Job] || rec.Kind == checkpoint.KindJobDone
	})
	if err != nil {
		return fmt.Errorf("jobs: registry compaction: %w", err)
	}
	return nil
}
