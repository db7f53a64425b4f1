package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/mpi"
	"triolet/internal/transport"
)

// Service-level tests: the job service driving real cluster sessions.
// Kernels are registered once per process (cluster.RegisterFarm panics on
// duplicates), shared across tests via distinct behaviors per payload.

// echoTransform is the deterministic reference transform: tests compare
// service results against it byte for byte.
func echoTransform(task []byte) []byte {
	out := make([]byte, len(task)+8)
	var sum uint64
	for i, b := range task {
		out[i] = b ^ 0x5A
		sum += uint64(b) * 31
	}
	binary.LittleEndian.PutUint64(out[len(task):], sum)
	return out
}

// slowFirstRuns counts executions of slow-marked tasks, so a task can be
// slow on its first attempt and fast after reassignment.
var slowFirstRuns atomic.Int64

func init() {
	// jobs.echo: pure transform.
	cluster.RegisterFarm("jobs.echo", func(n *cluster.Node, task []byte) ([]byte, error) {
		return echoTransform(task), nil
	})
	// jobs.poison: payloads starting 0xFF always fail; the rest echo.
	cluster.RegisterFarm("jobs.poison", func(n *cluster.Node, task []byte) ([]byte, error) {
		if len(task) > 0 && task[0] == 0xFF {
			return nil, errors.New("poison task")
		}
		return echoTransform(task), nil
	})
	// jobs.slowfirst: payloads starting 0xEE stall 50ms on their first
	// execution only — the task-timeout reassignment scenario.
	cluster.RegisterFarm("jobs.slowfirst", func(n *cluster.Node, task []byte) ([]byte, error) {
		if len(task) > 0 && task[0] == 0xEE && slowFirstRuns.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		return echoTransform(task), nil
	})
	// jobs.sleep: runs for payload[0] × 10ms of wall time (the fabric clock
	// of a session without an injected one), then echoes.
	cluster.RegisterFarm("jobs.sleep", func(n *cluster.Node, task []byte) ([]byte, error) {
		time.Sleep(time.Duration(task[0]) * 10 * time.Millisecond)
		return echoTransform(task), nil
	})
}

func makeTasks(n int, salt byte) [][]byte {
	tasks := make([][]byte, n)
	for i := range tasks {
		tasks[i] = []byte{byte(i), salt, byte(i * 13)}
	}
	return tasks
}

func wantResults(tasks [][]byte) [][]byte {
	out := make([][]byte, len(tasks))
	for i, task := range tasks {
		out[i] = echoTransform(task)
	}
	return out
}

// serveUntilStopped runs a session whose master serves s until every job
// is terminal, guarded by a deadline so a scheduling bug fails instead of
// hanging the suite.
func serveUntilStopped(t *testing.T, cfg cluster.Config, s *Service) {
	t.Helper()
	s.Stop() // drain mode: Serve returns when all admitted jobs settle
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Run(cfg, func(sess *cluster.Session) error {
			return s.Serve(context.Background(), sess)
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve session: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job service deadlocked")
	}
}

func checkJobResults(t *testing.T, s *Service, name string, tasks [][]byte) {
	t.Helper()
	results, quarantined, err := s.Result(name)
	if err != nil {
		t.Fatalf("result %s: %v", name, err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("%s quarantined tasks: %v", name, quarantined)
	}
	want := wantResults(tasks)
	for i := range want {
		if !bytes.Equal(results[i], want[i]) {
			t.Fatalf("%s task %d = %x, want %x", name, i, results[i], want[i])
		}
	}
}

// Three concurrent jobs of different weights all run to completion on one
// shared worker pool, with correct, per-job-routed results.
func TestConcurrentJobsShareOnePool(t *testing.T) {
	s := newTestService(t, Config{})
	jobTasks := map[string][][]byte{
		"alpha": makeTasks(12, 1),
		"beta":  makeTasks(7, 2),
		"gamma": makeTasks(20, 3),
	}
	weights := map[string]int{"alpha": 1, "beta": 2, "gamma": 1}
	for name, tasks := range jobTasks {
		if err := s.Submit(Spec{Name: name, Kernel: "jobs.echo", Tasks: tasks, Weight: weights[name]}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
	}
	serveUntilStopped(t, cluster.Config{Nodes: 4, CoresPerNode: 1}, s)

	for name, tasks := range jobTasks {
		st, ok := s.Job(name)
		if !ok || st.State != "done" {
			t.Fatalf("%s state = %+v, want done", name, st)
		}
		checkJobResults(t, s, name, tasks)
		if st.TaskSeconds < 0 {
			t.Fatalf("%s negative task-seconds", name)
		}
	}
}

// A poison-heavy job quarantines its poison tasks and completes degraded
// with a partial-result report, while a clean job sharing the pool
// completes untouched.
func TestPoisonJobDegradesWithPartialResults(t *testing.T) {
	s := newTestService(t, Config{})
	poisonTasks := makeTasks(10, 4)
	poisonIdx := map[int]bool{2: true, 5: true, 8: true}
	for i := range poisonIdx {
		poisonTasks[i] = append([]byte{0xFF}, poisonTasks[i]...)
	}
	cleanTasks := makeTasks(8, 5)
	if err := s.Submit(Spec{Name: "toxic", Kernel: "jobs.poison", Tasks: poisonTasks, MaxTaskAttempts: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Spec{Name: "clean", Kernel: "jobs.echo", Tasks: cleanTasks}); err != nil {
		t.Fatal(err)
	}
	serveUntilStopped(t, cluster.Config{Nodes: 4, CoresPerNode: 1}, s)

	st, _ := s.Job("toxic")
	if st.State != "degraded" || st.Failed != len(poisonIdx) || st.Completed != len(poisonTasks)-len(poisonIdx) {
		t.Fatalf("toxic status = %+v", st)
	}
	results, quarantined, err := s.Result("toxic")
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range poisonTasks {
		if poisonIdx[i] {
			if _, q := quarantined[i]; !q {
				t.Fatalf("poison task %d not quarantined: %v", i, quarantined)
			}
			continue
		}
		if !bytes.Equal(results[i], echoTransform(task)) {
			t.Fatalf("toxic task %d partial result wrong", i)
		}
	}
	stc, _ := s.Job("clean")
	if stc.State != "done" {
		t.Fatalf("clean job state = %s alongside poison job", stc.State)
	}
	checkJobResults(t, s, "clean", cleanTasks)
}

// A task stalling past its TaskTimeout is reassigned and the job still
// completes; the stall burns retry budget, not correctness.
func TestTaskTimeoutReassigns(t *testing.T) {
	slowFirstRuns.Store(0)
	s := newTestService(t, Config{})
	tasks := makeTasks(6, 6)
	tasks[0] = append([]byte{0xEE}, tasks[0]...)
	if err := s.Submit(Spec{Name: "stall", Kernel: "jobs.slowfirst", Tasks: tasks, TaskTimeout: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	serveUntilStopped(t, cluster.Config{Nodes: 3, CoresPerNode: 1}, s)
	st, _ := s.Job("stall")
	if st.State != "done" {
		t.Fatalf("stalled job state = %+v", st)
	}
	checkJobResults(t, s, "stall", tasks)
}

// A worker holds two assignments at once, the second waiting in its mailbox,
// and a task timeout counts only the time an attempt could run: two jobs'
// 400ms tasks interleaved on one worker under a 600ms timeout never time out,
// though each second task is done 800ms after its dispatch. The timeout is
// 1.5× a task, so the master may handle a result up to 200ms late without a
// false timeout. A task that genuinely hangs past the timeout still times out.
func TestTaskTimeoutExcludesQueueing(t *testing.T) {
	const timeout = 600 * time.Millisecond
	s := newTestService(t, Config{})
	steady := [][]byte{{40, 1}, {40, 2}}
	for _, name := range []string{"steady-a", "steady-b"} {
		if err := s.Submit(Spec{Name: name, Kernel: "jobs.sleep", Tasks: steady, TaskTimeout: timeout}); err != nil {
			t.Fatal(err)
		}
	}
	serveUntilStopped(t, cluster.Config{Nodes: 2, CoresPerNode: 1}, s)
	for _, name := range []string{"steady-a", "steady-b"} {
		if st, _ := s.Job(name); st.State != "done" || st.RetriesUsed != 0 {
			t.Errorf("%s: %+v, want done without a retry", name, st)
		}
		checkJobResults(t, s, name, steady)
	}

	// Alone: a 1s task under the same timeout.
	s = newTestService(t, Config{})
	if err := s.Submit(Spec{Name: "hung", Kernel: "jobs.sleep", Tasks: [][]byte{{100, 4}}, MaxTaskAttempts: 1, TaskTimeout: timeout}); err != nil {
		t.Fatal(err)
	}
	serveUntilStopped(t, cluster.Config{Nodes: 2, CoresPerNode: 1}, s)
	_, quarantined, err := s.Result("hung")
	if st, _ := s.Job("hung"); err != nil || st.State != "degraded" || !strings.Contains(quarantined[0], "timed out") {
		t.Fatalf("hung task: %+v, quarantined %v, err %v; want it timed out", st, quarantined, err)
	}
}

// A worker that crashed holding nothing is planned twice in one dispatch
// round, once per free slot. The first send retires it and the second joins
// that retirement: the round does not fail, and both tasks go back to the
// job's queue with no attempt left in flight on the dead worker.
func TestDispatchToWorkerCrashedEmpty(t *testing.T) {
	s := newTestService(t, Config{})
	tasks := makeTasks(3, 9)
	if err := s.Submit(Spec{Name: "orphan", Kernel: "jobs.echo", Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Nodes: 2, CoresPerNode: 1, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
	_, err := cluster.Run(cfg, func(sess *cluster.Session) error {
		mux, err := sess.OpenMux(cluster.MuxOptions{})
		if err != nil {
			return err
		}
		defer mux.Close()
		sess.Fabric().CrashRank(1)
		n := 0
		assign := func(w int, a cluster.MuxAssignment) error { n++; return mux.Assign(context.Background(), w, a) }
		if err := (&servePolicy{s, mux}).Dispatch(mux.Idle(), time.Time{}, assign); n != 2 || err != nil {
			return fmt.Errorf("dispatched %d, %v; want both slots planned without an error", n, err)
		}
		ev, ok, err := mux.Poll()
		if err != nil || !ok || ev.Kind != cluster.MuxWorkerLost || len(ev.Requeued) != 2 {
			return fmt.Errorf("event %+v, %v, %v; want worker 1 lost with two tasks", ev, ok, err)
		}
		return s.handleEvent(ev, time.Time{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Job("orphan"); st.Pending != 3 || st.Inflight != 0 {
		t.Fatalf("job after the loss: %+v, want 3 pending and none in flight", st)
	}
}

// Single-node session: no workers at all, the master-fallback path runs
// every task locally.
func TestMasterFallbackCompletesJobs(t *testing.T) {
	s := newTestService(t, Config{})
	tasks := makeTasks(5, 7)
	if err := s.Submit(Spec{Name: "solo", Kernel: "jobs.echo", Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	serveUntilStopped(t, cluster.Config{Nodes: 1, CoresPerNode: 1}, s)
	checkJobResults(t, s, "solo", tasks)
}

// The acceptance core: kill the master mid-flight on a faulty fabric,
// restart a fresh service over the same WAL, and every job resumes to
// bit-identical results with only unfinished tasks re-executed (indirectly:
// completed records survive and are not re-run, pinned by record counts).
func TestServiceResumesFromWALAfterMasterKill(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "registry.wal")
	wal, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	jobTasks := map[string][][]byte{
		"res-a": makeTasks(15, 11),
		"res-b": makeTasks(15, 12),
		"res-c": makeTasks(10, 13),
	}
	s1, err := NewService(Config{Store: wal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, tasks := range jobTasks {
		if err := s1.Submit(Spec{Name: name, Kernel: "jobs.echo", Tasks: tasks}); err != nil {
			t.Fatal(err)
		}
	}
	specRecords := wal.Records()

	// First life: chaos fabric, master killed once a few results land.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if wal.Records() >= specRecords+8 {
				cancel()
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	_, runErr := cluster.RunCtx(ctx, cluster.Config{
		Nodes: 4, CoresPerNode: 1,
		Fault: &transport.FaultConfig{
			Seed:    77,
			Default: transport.FaultProbs{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02},
		},
		Reliable: &mpi.ReliableConfig{
			AckTimeout:    500 * time.Microsecond,
			Retries:       100,
			MaxAckTimeout: 50 * time.Millisecond,
		},
	}, func(sess *cluster.Session) error {
		return s1.Serve(ctx, sess)
	})
	if runErr == nil {
		t.Fatal("first life outran the kill; raise the task counts")
	}
	wal.Close()

	// Second life: reopen from disk, recover, finish. The fresh service
	// must re-queue only unfinished tasks.
	wal2, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	resultsBefore := wal2.Records() - specRecords
	if resultsBefore < 8 {
		t.Fatalf("WAL lost task records across the kill: %d", resultsBefore)
	}
	s2, err := NewService(Config{Store: wal2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	totalSettledBefore := 0
	for name, tasks := range jobTasks {
		st, ok := s2.Job(name)
		if !ok {
			t.Fatalf("job %s lost across restart", name)
		}
		if st.Tasks != len(tasks) {
			t.Fatalf("job %s rehydrated with %d tasks, want %d", name, st.Tasks, len(tasks))
		}
		totalSettledBefore += st.Completed + st.Failed
	}
	if totalSettledBefore == 0 {
		t.Fatal("no checkpointed progress recovered")
	}
	serveUntilStopped(t, cluster.Config{Nodes: 4, CoresPerNode: 1}, s2)

	for name, tasks := range jobTasks {
		st, _ := s2.Job(name)
		if st.State != "done" {
			t.Fatalf("resumed job %s state = %+v", name, st)
		}
		// Bit-identical to the reference transform — chaos, the kill, and
		// the resume must not show through in the bytes.
		checkJobResults(t, s2, name, tasks)
	}
	// Only unfinished tasks re-executed: the registry gained exactly the
	// missing task records plus the three summaries.
	totalTasks := 0
	for _, tasks := range jobTasks {
		totalTasks += len(tasks)
	}
	wantFinal := specRecords + totalTasks + len(jobTasks)
	if got := wal2.Records(); got != wantFinal {
		t.Fatalf("registry has %d records, want %d (specs %d + tasks %d + summaries %d): tasks re-executed or lost",
			got, wantFinal, specRecords, totalTasks, len(jobTasks))
	}
}

// Registry compaction after completions: terminal jobs shrink to summary
// records, live state survives, and a restarted service still reports the
// compacted jobs' outcomes (as tombstones) while refusing name reuse.
func TestRegistryCompactionShrinksCompletedJobs(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "compact.wal")
	wal, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(Config{Store: wal, CompactEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := makeTasks(9, 21)
	if err := s.Submit(Spec{Name: "compactable", Kernel: "jobs.echo", Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	serveUntilStopped(t, cluster.Config{Nodes: 3, CoresPerNode: 1}, s)

	if got := wal.Records(); got != 1 {
		t.Fatalf("registry holds %d records after compaction, want just the summary", got)
	}
	wal.Close()

	wal2, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	s2, err := NewService(Config{Store: wal2})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s2.Job("compactable")
	if !ok || st.State != "done" || st.Tasks != len(tasks) {
		t.Fatalf("compacted job tombstone = %+v, ok=%v", st, ok)
	}
	if err := s2.Submit(Spec{Name: "compactable", Kernel: "jobs.echo", Tasks: tasks}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("compacted name reused: %v", err)
	}
}

// The Go API refuses the negative settings POST /jobs refuses, instead of
// admitting them at their defaults (a negative weight as weight 1) or as
// "none" (a negative timeout or byte budget).
func TestSubmitRefusesNegativeSettings(t *testing.T) {
	s := newTestService(t, Config{})
	for i, sp := range []Spec{
		{Weight: -5}, {MaxTaskAttempts: -1}, {RetryBudget: -1},
		{TaskTimeout: -time.Millisecond}, {ByteBudget: -1},
	} {
		sp.Name, sp.Kernel, sp.Tasks = fmt.Sprintf("neg%d", i), "k", [][]byte{{1}}
		if err := s.Submit(sp); err == nil {
			st, _ := s.Job(sp.Name)
			t.Errorf("Submit(%+v) admitted the job as %+v", sp, st)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted, want 0", n)
	}
}
