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
// Serve owns the Mux and all dispatching: Mux.Drive runs the master loop
// under servePolicy. There is at most one Serve per service at a time,
// running in the cluster master goroutine.
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
	s.mu.Lock()
	s.serving = true
	s.ep = sess.Fabric().Endpoint(0) // the loop idles there; Submit and Stop wake it
	recovered := slices.Clone(s.liveJobsLocked())
	s.mu.Unlock()
	// A job whose last task records reached the registry but whose summary
	// did not (a crash in the gap) finishes now, without re-execution.
	for _, j := range recovered {
		s.mu.Lock()
		if err := s.maybeCompleteLocked(j); err != nil {
			return err
		}
	}
	return mux.Drive(ctx, &servePolicy{s, mux})
}

// servePolicy is Serve's policy over Mux.Drive: WDRR dispatch over every
// job's ledger, task timeouts and byte budgets, rank health and the status
// fields.
type servePolicy struct {
	*Service
	mux *cluster.Mux
}

// Dispatch fails attempts that outlived their job's task timeout and
// degrades jobs that crossed their byte budget, then runs one scheduling
// round onto the idle, non-draining slots. The plan is built and accounted
// under the service mutex; the sends happen outside it so a slow
// acknowledged send does not block Submit or the status surface.
func (p *servePolicy) Dispatch(idle []int, now time.Time, assign func(int, cluster.MuxAssignment) error) error {
	if err := p.sweep(now); err != nil {
		return err
	}
	p.mu.Lock()
	plan := p.schedule(now, p.usableWorkers(idle))
	p.mu.Unlock()
	for _, d := range plan {
		if err := assign(d.worker, d.a); err != nil {
			return fmt.Errorf("jobs: dispatch %q/%d to %d: %w", d.a.Job, d.a.Task, d.worker, err)
		}
	}
	return nil
}

func (p *servePolicy) Settle(ev cluster.MuxEvent, now time.Time) error { return p.handleEvent(ev, now) }

// Deadline is the earliest fabric-clock instant at which the service must
// act with nothing arriving: an in-flight attempt's task timeout, or a
// retry-backoff release after now (one at or before now only waits for a
// worker, whose result wakes the loop).
func (p *servePolicy) Deadline(now time.Time) (at time.Time) {
	p.mu.Lock()
	for _, j := range p.liveJobsLocked() {
		at = transport.Sooner(at, j.ledger.Deadline(now, j.spec.TaskTimeout))
	}
	p.mu.Unlock()
	return at
}

// Done refreshes the status surface's view of the pool and reports whether
// the service is stopped with every admitted job terminal.
func (p *servePolicy) Done() bool {
	p.mu.Lock()
	p.workers = p.mux.Workers()
	p.draining = p.draining[:0]
	for _, w := range p.mux.Idle() {
		if p.drainingLocked(w) && !slices.Contains(p.draining, w) {
			p.draining = append(p.draining, w)
		}
	}
	done := p.stopped && p.liveLocked() == 0
	p.mu.Unlock()
	return done
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
	for _, j := range s.liveJobsLocked() {
		name := j.spec.Name
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
	verdict, rec := j.ledger.Observe(ev, now)
	switch verdict {
	case cluster.VerdictMalformed:
		s.mu.Unlock()
		return fmt.Errorf("jobs: result for %q task %d out of range", ev.Job, ev.Task)
	case cluster.VerdictDuplicate:
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
