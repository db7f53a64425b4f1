package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/mpi"
)

// Serve-path unit tests: handleEvent and sweep are policy over the
// job table, exercised here without a cluster. Single-threaded calls stand
// in for the serve goroutine, locking s.mu where the real caller would.

// hookStore wraps a checkpoint store with an Append interceptor, so tests
// can observe or fail the durable write that gates admission.
type hookStore struct {
	checkpoint.Store
	onAppend func(checkpoint.Record) error
}

func (h *hookStore) Append(rec checkpoint.Record) error {
	if h.onAppend != nil {
		if err := h.onAppend(rec); err != nil {
			return err
		}
	}
	return h.Store.Append(rec)
}

// A job mid-Submit — slot reserved, spec record not yet durable — must be
// invisible to the scheduler: a concurrent Serve loop in that window would
// otherwise dispatch tasks that a failed append then orphans.
func TestSubmitNotSchedulableUntilRecorded(t *testing.T) {
	hs := &hookStore{Store: checkpoint.NewMem()}
	s := newTestService(t, Config{Store: hs})
	now := time.Unix(0, 0)
	duringAppend := -1
	hs.onAppend = func(checkpoint.Record) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		duringAppend = len(s.schedule(now, []int{1, 2}))
		return nil
	}
	submitN(t, s, "j", 3, 1)
	if duringAppend != 0 {
		t.Fatalf("scheduler dispatched %d tasks for a job whose admission record was still in flight", duringAppend)
	}
	s.mu.Lock()
	plan := s.schedule(now, []int{1})
	s.mu.Unlock()
	if len(plan) != 1 {
		t.Fatalf("recorded job did not dispatch: plan = %v", plan)
	}
}

// A failed admission append rolls the slot back completely — no job entry,
// no ring slot, and the name is reusable once the store recovers. With the
// recorded gate nothing can have been dispatched, so the rollback is safe.
func TestSubmitRollbackOnAppendFailure(t *testing.T) {
	hs := &hookStore{
		Store:    checkpoint.NewMem(),
		onAppend: func(checkpoint.Record) error { return errors.New("disk full") },
	}
	s := newTestService(t, Config{Store: hs})
	err := s.Submit(Spec{Name: "j", Kernel: "k", Tasks: [][]byte{{1}}})
	if err == nil {
		t.Fatal("Submit succeeded over a failing store")
	}
	s.mu.Lock()
	_, exists := s.jobs["j"]
	ring := len(s.order)
	s.mu.Unlock()
	if exists || ring != 0 {
		t.Fatalf("rolled-back job still present (exists=%v, ring=%d)", exists, ring)
	}
	hs.onAppend = nil
	if err := s.Submit(Spec{Name: "j", Kernel: "k", Tasks: [][]byte{{1}}}); err != nil {
		t.Fatalf("name not reusable after rollback: %v", err)
	}
}

// A result frame for a job the service does not know (a rolled-back
// submission, a foreign tenant's stray frame) is dropped: it must not kill
// the Serve loop for every other tenant.
func TestUnknownJobResultDropped(t *testing.T) {
	s := newTestService(t, Config{})
	ev := cluster.MuxEvent{
		Kind: cluster.MuxTaskDone, Worker: 1,
		Job: "never-admitted", Task: 0, OK: true, Result: []byte{1},
	}
	if err := s.handleEvent(ev, time.Unix(0, 0)); err != nil {
		t.Fatalf("stray result killed the serve loop: %v", err)
	}
}

// dispatchTo schedules one task onto worker, as dispatch would.
func dispatchTo(t *testing.T, s *Service, worker int, now time.Time) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	plan := s.schedule(now, []int{worker})
	if len(plan) != 1 {
		t.Fatalf("schedule at %v returned %d assignments, want 1", now, len(plan))
	}
	return plan[0].a.Task
}

// A task that hangs on every attempt climbs the same degradation ladder as
// an explicit failure: each timeout burns an attempt and waits out backoff,
// and when attempts run out the task is durably quarantined so the job
// reaches a terminal state instead of being reassigned forever.
func TestTimeoutClimbsDegradationLadder(t *testing.T) {
	store := checkpoint.NewMem()
	s := newTestService(t, Config{Store: store, Seed: 9})
	spec := Spec{
		Name: "hang", Kernel: "k", Tasks: [][]byte{{1}},
		MaxTaskAttempts: 2, RetryBudget: 10, TaskTimeout: 5 * time.Millisecond,
	}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	j := s.jobs["hang"]

	now := time.Unix(0, 0)
	task := dispatchTo(t, s, 1, now)

	// First timeout: an attempt is burned, the retry waits out backoff.
	now = now.Add(6 * time.Millisecond)
	if err := s.sweep(now); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	l := j.ledger
	if l.Attempts(task) != 1 || l.Retried != 1 {
		t.Fatalf("after first timeout attempts=%d retried=%d, want 1/1", l.Attempts(task), l.Retried)
	}
	if l.InFlight() != 0 || !slices.Contains(l.Pending(), task) {
		t.Fatalf("timed-out task not requeued: inflight=%d pending=%v", l.InFlight(), l.Pending())
	}
	if rel := l.Deadline(now, 0); !rel.After(now) {
		t.Fatalf("timed-out retry has no backoff: release=%v now=%v", rel, now)
	}
	s.mu.Lock()
	early := s.schedule(now, []int{1})
	s.mu.Unlock()
	if len(early) != 0 {
		t.Fatal("retry dispatched before its backoff release")
	}

	// Second timeout exhausts MaxTaskAttempts: durable quarantine, job
	// terminal, waiters released.
	now = now.Add(10 * time.Millisecond)
	task = dispatchTo(t, s, 2, now)
	now = now.Add(6 * time.Millisecond)
	if err := s.sweep(now); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if j.state != Degraded {
		t.Fatalf("always-hanging job state = %s, want degraded", j.state)
	}
	if f := l.Failed; len(f) != 1 || f[0].Task != task {
		t.Fatalf("exhausted task not quarantined: %v", f)
	}
	select {
	case <-j.done:
	default:
		t.Fatal("terminal job's done channel not closed")
	}
	recs, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	sawFailed := false
	for _, rec := range recs {
		if rec.Job == "hang" && rec.Kind == checkpoint.KindFailed && rec.Task == task {
			sawFailed = true
			if rec.Attempts != 2 {
				t.Fatalf("quarantine record attempts = %d, want 2", rec.Attempts)
			}
		}
	}
	if !sawFailed {
		t.Fatal("timeout quarantine left no durable KindFailed record")
	}
}

// When a timed-out attempt's late result settles a task while the retry is
// still running elsewhere, the retry's eventual result must retire its
// inflight entry in the dedup path — otherwise sweep keeps "timing
// out" the stale entry and the settled task is re-executed forever.
func TestLateResultThenRetryResultRetiresInflight(t *testing.T) {
	s := newTestService(t, Config{})
	spec := Spec{
		Name: "dup", Kernel: "k", Tasks: [][]byte{{1}, {2}},
		TaskTimeout: 5 * time.Millisecond,
	}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	j := s.jobs["dup"]

	now := time.Unix(0, 0)
	task := dispatchTo(t, s, 1, now) // attempt on worker 1

	// Timeout, then redispatch the retry onto worker 2. The timed-out task
	// rejoined the tail, so worker 3 takes the job's other task first — and
	// fails it, which leaves that task pending and the job live to the end.
	now = now.Add(6 * time.Millisecond)
	if err := s.sweep(now); err != nil {
		t.Fatal(err)
	}
	now = now.Add(backoffBase * 13 / 10)
	s.mu.Lock()
	plan := s.schedule(now, []int{3, 2})
	s.mu.Unlock()
	if len(plan) != 2 || plan[1].a.Task != task || plan[1].worker != 2 {
		t.Fatalf("retry did not redispatch task %d on worker 2: %+v", task, plan)
	}
	if err := s.handleEvent(cluster.MuxEvent{
		Kind: cluster.MuxTaskDone, Worker: 3, Job: "dup", Task: plan[0].a.Task, Err: "flaky",
	}, now); err != nil {
		t.Fatal(err)
	}

	// The late first-attempt result settles the task...
	if err := s.handleEvent(cluster.MuxEvent{
		Kind: cluster.MuxTaskDone, Worker: 1, Job: "dup", Task: task,
		OK: true, Result: []byte("first"),
	}, now); err != nil {
		t.Fatal(err)
	}
	// ...and the retry's duplicate result must still retire worker 2's
	// inflight entry.
	if err := s.handleEvent(cluster.MuxEvent{
		Kind: cluster.MuxTaskDone, Worker: 2, Job: "dup", Task: task,
		OK: true, Result: []byte("second"),
	}, now); err != nil {
		t.Fatal(err)
	}
	l := j.ledger
	if got := l.Results[task]; string(got) != "first" {
		t.Fatalf("first settlement did not stand: %q", got)
	}
	if l.InFlight() != 0 {
		t.Fatal("retry worker's inflight entry survived the duplicate result")
	}

	// No resurrection: a later sweep and schedule must not touch the
	// settled task, and the job's retry budget stops bleeding.
	usedBefore := l.Retried
	now = now.Add(time.Hour)
	if err := s.sweep(now); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(l.Pending(), task) {
		t.Fatal("settled task requeued by the timeout sweep")
	}
	if l.Retried != usedBefore {
		t.Fatalf("retry budget bled on a settled task: %d -> %d", usedBefore, l.Retried)
	}
	s.mu.Lock()
	plan = s.schedule(now, []int{1, 2})
	s.mu.Unlock()
	for _, p := range plan {
		if p.a.Task == task {
			t.Fatal("scheduler re-dispatched a settled task")
		}
	}
}

// A stale inflight entry whose task settled while the attempt was in
// flight is reaped by the sweep without a requeue, a budget charge, or a
// health penalty — the worker did nothing wrong.
func TestSweepDropsStaleEntryForSettledTask(t *testing.T) {
	s := newTestService(t, Config{})
	spec := Spec{
		Name: "stale", Kernel: "k", Tasks: [][]byte{{1}, {2}},
		TaskTimeout: 5 * time.Millisecond,
	}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	j := s.jobs["stale"]

	now := time.Unix(0, 0)
	task := dispatchTo(t, s, 3, now)
	// The task settles (late duplicate from an earlier life of the worker)
	// while worker 3's attempt is still nominally in flight.
	if err := s.handleEvent(cluster.MuxEvent{
		Kind: cluster.MuxTaskDone, Worker: 7, Job: "stale", Task: task,
		OK: true, Result: []byte("settled"),
	}, now); err != nil {
		t.Fatal(err)
	}
	l := j.ledger
	if l.InFlight() != 1 {
		t.Fatal("test setup: worker 3's attempt should still be inflight")
	}

	now = now.Add(6 * time.Millisecond)
	if err := s.sweep(now); err != nil {
		t.Fatal(err)
	}
	if l.InFlight() != 0 {
		t.Fatal("stale inflight entry survived the sweep")
	}
	if slices.Contains(l.Pending(), task) || l.Attempts(task) != 0 || l.Retried != 0 {
		t.Fatalf("settled task penalized by sweep: pending=%v attempts=%d retried=%d",
			l.Pending(), l.Attempts(task), l.Retried)
	}
	if s.health[3] != 0 {
		t.Fatalf("worker 3 health penalized for a settled task: %v", s.health[3])
	}
}

// A lost worker whose in-flight task already settled retires the attempt
// record without requeueing the task.
func TestWorkerLostDoesNotRequeueSettledTask(t *testing.T) {
	s := newTestService(t, Config{})
	if err := s.Submit(Spec{Name: "lost", Kernel: "k", Tasks: [][]byte{{1}, {2}}}); err != nil {
		t.Fatal(err)
	}
	j := s.jobs["lost"]
	now := time.Unix(0, 0)
	task := dispatchTo(t, s, 4, now)
	if err := s.handleEvent(cluster.MuxEvent{
		Kind: cluster.MuxTaskDone, Worker: 9, Job: "lost", Task: task,
		OK: true, Result: []byte("done"),
	}, now); err != nil {
		t.Fatal(err)
	}
	if err := s.handleEvent(cluster.MuxEvent{
		Kind: cluster.MuxWorkerLost, Worker: 4,
		Requeued: []cluster.MuxAssignment{{Job: "lost", Task: task}},
	}, now); err != nil {
		t.Fatal(err)
	}
	if j.ledger.InFlight() != 0 {
		t.Fatal("lost worker's stale inflight entry survived")
	}
	if slices.Contains(j.ledger.Pending(), task) {
		t.Fatal("settled task requeued after worker loss")
	}
}

// The serve loop idles on the master's mailbox with no poll tick. With beats
// an hour apart nothing arrives on its own and the only deadline, the
// worker's retirement, is heartbeatMisses hours off, so only Submit's and
// Stop's explicit wakes can move an idle Serve: the job must be dispatched
// and the drain noticed promptly.
func TestSubmitAndStopWakeIdleServe(t *testing.T) {
	s := newTestService(t, Config{})
	served := make(chan error, 1)
	go func() {
		_, err := cluster.Run(cluster.Config{
			Nodes: 2, CoresPerNode: 1,
			Reliable:      &mpi.ReliableConfig{AckTimeout: time.Second},
			FarmHeartbeat: time.Hour,
		}, func(sess *cluster.Session) error {
			return s.Serve(context.Background(), sess)
		})
		served <- err
	}()
	for !s.Metrics().Serving {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the loop go idle

	tasks := makeTasks(4, 9)
	start := time.Now()
	if err := s.Submit(Spec{Name: "wake", Kernel: "jobs.echo", Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait("wake")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("idle Serve never noticed the submission")
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("submit→done took %v on an idle service", took)
	}
	s.Stop()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle Serve never noticed Stop")
	}
	got, failed, err := s.Result("wake")
	if err != nil || len(failed) != 0 {
		t.Fatalf("result: %v, failed %v", err, failed)
	}
	for i, want := range wantResults(tasks) {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("task %d result mismatch", i)
		}
	}
}

// One master-loop turn (Dispatch + Deadline) beside n terminal jobs, here
// compacted ones rebuilt from their summaries: the loop walks live jobs
// only, so the turn's cost does not grow with the jobs that finished.
func BenchmarkServeTurnTerminalJobs(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("terminal=%d", n), func(b *testing.B) {
			store := checkpoint.NewMem()
			sum := encodeDone(doneSummary{state: Done, completed: 1})
			for i := 0; i < n; i++ {
				store.Append(checkpoint.Record{Job: fmt.Sprintf("done%d", i), Kind: checkpoint.KindJobDone, Payload: sum})
			}
			s, err := NewService(Config{Store: store})
			if err != nil {
				b.Fatal(err)
			}
			p := &servePolicy{Service: s}
			now := time.Unix(0, 0)
			assign := func(int, cluster.MuxAssignment) error { return nil }
			idle := []int{1}
			for b.Loop() {
				if err := p.Dispatch(idle, now, assign); err != nil {
					b.Fatal(err)
				}
				p.Deadline(now)
			}
		})
	}
}
