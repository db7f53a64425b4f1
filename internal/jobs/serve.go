package jobs

import (
	"context"
	"fmt"
	"slices"
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
	mux, err := sess.OpenMux(cluster.MuxOptions{})
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
	recovered := make([]*job, 0, len(s.order))
	for _, name := range s.order {
		recovered = append(recovered, s.jobs[name])
	}
	s.mu.Unlock()
	// A job whose last task records reached the registry but whose summary
	// did not (a crash in the gap) finishes now, without re-execution.
	for _, j := range recovered {
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

		// Fail attempts that outlived their job's task timeout, and degrade
		// jobs that crossed their declared byte budget.
		if serr := s.sweep(clk.Now()); serr != nil {
			return serr
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
			if s.drainingLocked(w) && !slices.Contains(s.draining, w) {
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
		// reaches the next heartbeat expiry, task timeout, backoff release or
		// retransmission of an unacknowledged assignment.
		if !progress && sess.Node().Comm.Idle(ctx, gen, s.nextDeadline(now, mux.NextExpiry())) == transport.WaitClosed {
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
		if !j.state.Terminal() {
			at = transport.Sooner(at, j.ledger.Deadline(now, j.spec.TaskTimeout))
		}
	}
	return at
}

// dispatch runs one scheduling round and ships the plan. The plan is built
// and accounted under the service mutex; the sends happen outside it so a
// slow acknowledged send does not block Submit or the status surface.
func (s *Service) dispatch(ctx context.Context, mux *cluster.Mux, now time.Time) (int, error) {
	s.mu.Lock()
	plan := s.schedule(now, s.usableWorkers(mux.Idle()))
	s.mu.Unlock()
	for _, p := range plan {
		// A send to a worker that died retires it inside Assign and the
		// assignment returns through a MuxWorkerLost event for requeueing.
		if err := mux.Assign(ctx, p.worker, p.a); err != nil {
			return 0, fmt.Errorf("jobs: dispatch %q/%d: %w", p.a.Job, p.a.Task, err)
		}
	}
	return len(plan), nil
}

// runLocalOnce executes one ready task on the master (no-workers fallback).
func (s *Service) runLocalOnce(mux *cluster.Mux, now time.Time) (bool, error) {
	s.mu.Lock()
	plan := s.schedule(now, []int{0})
	s.mu.Unlock()
	if len(plan) == 0 {
		return false, nil
	}
	return true, s.handleEvent(mux.RunLocal(plan[0].a), now)
}

// settle finishes the two-step settlement a job's ledger proposed as rec,
// for results and quarantines alike: the record is appended first (write-
// ahead, outside the lock like every store write), then committed, and the
// job may complete. A task something else settled during the append is left
// as it is.
func (s *Service) settle(rec checkpoint.Record, now time.Time) error {
	if err := s.cfg.Store.Append(rec); err != nil {
		return fmt.Errorf("jobs: checkpoint %q/%d: %w", rec.Job, rec.Task, err)
	}
	s.mu.Lock()
	j := s.jobs[rec.Job]
	if j.state.Terminal() || !j.ledger.Commit(rec) {
		s.mu.Unlock()
		return nil
	}
	j.noteSettleLocked(now)
	return s.maybeCompleteLocked(j)
}

// sweep enforces the two per-job limits the service adds to the ladder.
//
// TaskTimeout: an attempt whose fabric-clock age exceeds it is declared to
// the ledger as a failed attempt, on the same ladder as a kernel failure — a
// task that hangs forever must still drive its job to a terminal state
// instead of being reassigned without bound. The slow rank keeps its Mux
// liveness (it may just be overloaded) but pays a health penalty; if the
// original attempt's result arrives later anyway it is deduplicated.
//
// ByteBudget: a job whose accounted fabric bytes (payloads dispatched +
// results returned) crossed it has its still-pending tasks quarantined with a
// QuotaError message, so it stops consuming fabric and completes Degraded
// once its in-flight attempts settle.
func (s *Service) sweep(now time.Time) error {
	var out []checkpoint.Record
	s.mu.Lock()
	for _, name := range s.order {
		j := s.jobs[name]
		if j.state.Terminal() {
			continue
		}
		for j.spec.TaskTimeout > 0 {
			worker, task, ok := j.ledger.Expired(now, j.spec.TaskTimeout)
			if !ok {
				break
			}
			verdict, rec := j.ledger.Observe(cluster.MuxEvent{
				Kind: cluster.MuxTaskDone, Worker: worker, Job: name, Task: task,
				Err: fmt.Sprintf("task timed out after %v (attempt %d)", j.spec.TaskTimeout, j.ledger.Attempts(task)+1),
			}, now)
			if verdict == cluster.VerdictDuplicate {
				// A stale attempt: a late or concurrent result settled the
				// task while it was still nominally in flight. Nothing to
				// redo, and the worker owes no penalty.
				continue
			}
			s.noteWorkerFailure(worker)
			if verdict == cluster.VerdictQuarantine {
				out = append(out, rec)
			}
		}
		if j.overQuotaLocked() {
			qe := &QuotaError{Job: name, Used: j.bytesIn + j.bytesOut, Budget: j.spec.ByteBudget}
			for _, task := range j.ledger.Pending() {
				out = append(out, j.ledger.Quarantine(task, qe.Error()))
			}
		}
	}
	s.mu.Unlock()
	for _, rec := range out {
		if err := s.settle(rec, now); err != nil {
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
		for _, a := range slices.Backward(ev.Requeued) { // each goes to its queue's head: oldest ends first
			if j, ok := s.jobs[a.Job]; ok && !j.state.Terminal() {
				j.ledger.WorkerLost(ev.Worker, a)
			}
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

// handleTaskDone puts one execution outcome to its job's ledger and does the
// tenant accounting for whatever was not a duplicate.
func (s *Service) handleTaskDone(ev cluster.MuxEvent, now time.Time) error {
	s.mu.Lock()
	if nj, ok := s.jobs[ev.Next.Job]; ok && !nj.state.Terminal() {
		// The worker's next assignment, of whatever job, starts running now.
		nj.ledger.Started(ev.Worker, ev.Next.Task, now)
	}
	j, known := s.jobs[ev.Job]
	if !known || j.state.Terminal() {
		// A stray frame for a job this service does not know (e.g. a
		// submission rolled back after a failed registry append), or a late
		// one for a finished job (a compacted one holds no tasks to check
		// it against). Drop it: one late result must not kill the Serve
		// loop for every tenant.
		s.mu.Unlock()
		return nil
	}
	if ev.Task < 0 || ev.Task >= len(j.spec.Tasks) {
		s.mu.Unlock()
		return fmt.Errorf("jobs: result for %q task %d out of range", ev.Job, ev.Task)
	}
	verdict, rec := j.ledger.Observe(ev, now)
	if verdict == cluster.VerdictDuplicate {
		s.mu.Unlock()
		return nil
	}
	j.taskSeconds += ev.Elapsed
	if ev.OK {
		j.bytesOut += int64(len(ev.Result))
	}
	if ev.Worker != 0 {
		if ev.OK {
			s.noteWorkerSuccess(ev.Worker)
		} else {
			s.noteWorkerFailure(ev.Worker)
		}
	}
	s.mu.Unlock()
	if verdict == cluster.VerdictRetry {
		return nil
	}
	return s.settle(rec, now)
}

// maybeCompleteLocked finishes a job whose every task is settled: state,
// durable summary, waiter wakeup, and (optionally) registry compaction.
// Called with s.mu held; releases and reacquires it around store writes and
// returns with it released.
func (s *Service) maybeCompleteLocked(j *job) error {
	if j.state.Terminal() || j.ledger.Settled() < len(j.spec.Tasks) {
		s.mu.Unlock()
		return nil
	}
	state := Done
	failed := len(j.ledger.Failed)
	if failed > 0 {
		state = Degraded
	}
	sum := doneSummary{
		state:       state,
		completed:   j.ledger.Settled() - failed,
		failed:      failed,
		retriesUsed: j.ledger.Retried,
		taskSeconds: j.taskSeconds,
		resultCRC:   resultCRC(j.ledger),
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
