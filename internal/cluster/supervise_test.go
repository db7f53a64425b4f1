package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/serial"
	"triolet/internal/trace"
)

// Supervision tests: the farm's per-task failure policy, panic containment,
// heartbeat health monitor, checkpoint/resume, and cancellation — the
// behaviors that keep one bad task, one silent worker, or one killed master
// from taking the whole job down.

// A panicking kernel is a per-task failure, not a dead rank: the panic is
// recovered on the worker, retried, and quarantined like any other error.
func TestFarmPanicQuarantined(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("sup.panics", func(n *Node, task []byte) ([]byte, error) {
		if task[0] == 1 {
			panic("kernel bug")
		}
		return task, nil
	})
	_, err := runGuarded(t, Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		fr, err := s.Farm("sup.panics", [][]byte{{0}, {1}, {2}})
		if err != nil {
			return err
		}
		if len(fr.Failed) != 1 || fr.Failed[0].Task != 1 {
			return fmt.Errorf("Failed = %+v, want task 1 quarantined", fr.Failed)
		}
		if f := fr.Failed[0]; f.Attempts != maxAttempts || !strings.Contains(f.Err, "panicked") {
			return fmt.Errorf("quarantine record = %+v", f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A task that fails transiently succeeds on retry and is not quarantined.
func TestFarmTransientFailureRetried(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	var failures atomic.Int32
	RegisterFarm("sup.flaky", func(n *Node, task []byte) ([]byte, error) {
		if task[0] == 1 && failures.Add(1) < maxAttempts {
			return nil, errors.New("transient")
		}
		return task, nil
	})
	_, err := runGuarded(t, Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		fr, err := s.FarmOpts("sup.flaky", [][]byte{{0}, {1}, {2}}, FarmOptions{})
		if err != nil {
			return err
		}
		if len(fr.Failed) != 0 {
			return fmt.Errorf("transiently failing task quarantined: %+v", fr.Failed)
		}
		if fr.Retried != maxAttempts-1 {
			return fmt.Errorf("Retried = %d, want %d", fr.Retried, maxAttempts-1)
		}
		if fr.Results[1][0] != 1 {
			return fmt.Errorf("results = %v", fr.Results)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A worker that goes silent — no beats, no results — is retired by the
// heartbeat monitor and its task finishes elsewhere. Its beats are an hour
// apart, so none arrives; its kernel moves the fabric clock past
// heartbeatMisses of them and stays silent while the master sweeps.
func TestFarmHeartbeatRetiresSilentWorker(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	const hb = time.Hour
	clk := newFakeClock()
	RegisterFarm("sup.slow", func(n *Node, task []byte) ([]byte, error) {
		if !n.IsRoot() && task[0] == 0 {
			clk.advance(heartbeatMisses * hb)
			time.Sleep(200 * time.Millisecond)
		}
		return task, nil
	})
	tr := trace.New()
	_, err := runGuarded(t, Config{
		Nodes: 2, CoresPerNode: 1,
		Tracer:        tr,
		Clock:         clk,
		FarmHeartbeat: hb,
	}, func(s *Session) error {
		fr, err := s.FarmOpts("sup.slow", [][]byte{{0}, {1}}, FarmOptions{})
		if err != nil {
			return err
		}
		if len(fr.Lost) != 1 || fr.Lost[0] != 1 {
			return fmt.Errorf("Lost = %v, want [1]", fr.Lost)
		}
		if fr.MasterRan != 2 {
			return fmt.Errorf("MasterRan = %d, want 2", fr.MasterRan)
		}
		if fr.Reassigned != 2 { // the silent worker held both tasks
			return fmt.Errorf("Reassigned = %d, want 2", fr.Reassigned)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count("farm.heartbeat-miss") < 1 {
		t.Fatal("no farm.heartbeat-miss trace event")
	}
	if tr.Count("farm.retire") < 1 {
		t.Fatal("no farm.retire trace event")
	}
}

// Heartbeats keep a slow-but-alive worker employed: with beats flowing, a
// kernel that outlives the heartbeat timeout (heartbeatMisses beats of
// 400µs: 200ms) must NOT be retired.
func TestFarmHeartbeatKeepsSlowWorkerAlive(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	const hb = 400 * time.Microsecond
	RegisterFarm("sup.slow-alive", func(n *Node, task []byte) ([]byte, error) {
		time.Sleep(3 * heartbeatMisses * hb / 2)
		return task, nil
	})
	_, err := runGuarded(t, Config{
		Nodes: 2, CoresPerNode: 1,
		FarmHeartbeat: hb,
	}, func(s *Session) error {
		fr, err := s.FarmOpts("sup.slow-alive", [][]byte{{7}}, FarmOptions{})
		if err != nil {
			return err
		}
		if len(fr.Lost) != 0 {
			return fmt.Errorf("beating worker retired: Lost = %v", fr.Lost)
		}
		if fr.MasterRan != 0 {
			return fmt.Errorf("master stole the task: MasterRan = %d", fr.MasterRan)
		}
		if fr.Results[0][0] != 7 {
			return fmt.Errorf("results = %v", fr.Results)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Resume: tasks already in the checkpoint store are restored, not re-run.
func TestFarmResumeSkipsCheckpointedTasks(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	var execs atomic.Int32
	RegisterFarm("sup.ckpt", func(n *Node, task []byte) ([]byte, error) {
		execs.Add(1)
		return append([]byte("out:"), task...), nil
	})
	store := checkpoint.NewMem()
	// Tasks 0 and 2 already finished in a previous life; 3 was quarantined.
	mustAppend := func(rec checkpoint.Record) {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(checkpoint.Record{Job: "j", Task: 0, Kind: checkpoint.KindResult, Payload: []byte("out:a")})
	mustAppend(checkpoint.Record{Job: "j", Task: 2, Kind: checkpoint.KindResult, Payload: []byte("out:c")})
	mustAppend(checkpoint.Record{Job: "j", Task: 3, Kind: checkpoint.KindFailed, Attempts: 3, Payload: []byte("poison")})
	mustAppend(checkpoint.Record{Job: "other", Task: 1, Kind: checkpoint.KindResult, Payload: []byte("WRONG")})
	_, err := runGuarded(t, Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		fr, err := s.FarmOpts("sup.ckpt",
			[][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")},
			FarmOptions{Checkpoint: store, Job: "j"})
		if err != nil {
			return err
		}
		if fr.Resumed != 3 {
			return fmt.Errorf("Resumed = %d, want 3", fr.Resumed)
		}
		want := [][]byte{[]byte("out:a"), []byte("out:b"), []byte("out:c"), nil}
		for i, w := range want {
			if !bytes.Equal(fr.Results[i], w) {
				return fmt.Errorf("result %d = %q, want %q", i, fr.Results[i], w)
			}
		}
		if len(fr.Failed) != 1 || fr.Failed[0].Task != 3 || fr.Failed[0].Err != "poison" {
			return fmt.Errorf("Failed = %+v", fr.Failed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("kernel executed %d times, want 1 (only the unfinished task)", got)
	}
	// The store now holds the full job: a second run resumes everything.
	execs.Store(0)
	_, err = runGuarded(t, Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		fr, err := s.FarmOpts("sup.ckpt",
			[][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")},
			FarmOptions{Checkpoint: store, Job: "j"})
		if err != nil {
			return err
		}
		if fr.Resumed != 4 {
			return fmt.Errorf("second run Resumed = %d, want 4", fr.Resumed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 0 {
		t.Fatalf("fully checkpointed job re-executed %d tasks", got)
	}
}

// Checkpointing requires a job name.
func TestFarmCheckpointRequiresJobName(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("sup.noname", func(n *Node, task []byte) ([]byte, error) { return task, nil })
	_, err := runGuarded(t, Config{Nodes: 1, CoresPerNode: 1}, func(s *Session) error {
		_, err := s.FarmOpts("sup.noname", [][]byte{{1}}, FarmOptions{Checkpoint: checkpoint.NewMem()})
		if err == nil {
			return errors.New("checkpointing without a job name accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Cancelling the session context unwinds a running farm promptly: the
// master's Farm call returns ctx.Err(), the master tears the session down,
// and RunCtx returns — all well under a second for a farm that would
// otherwise run much longer.
func TestFarmCancellationUnwindsSession(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("sup.endless", func(n *Node, task []byte) ([]byte, error) {
		time.Sleep(10 * time.Millisecond)
		return task, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	tasks := make([][]byte, 500) // ~5s of sequential work: cancel must cut it short
	for i := range tasks {
		tasks[i] = []byte{byte(i)}
	}
	var farmReturned time.Duration
	var cancelAt time.Time
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, Config{Nodes: 2, CoresPerNode: 1}, func(s *Session) error {
			_, err := s.Farm("sup.endless", tasks)
			farmReturned = time.Since(cancelAt)
			return err
		})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the farm get going
	cancelAt = time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx = %v, want context.Canceled in the chain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session did not unwind on cancel")
	}
	if farmReturned > 100*time.Millisecond {
		t.Fatalf("Farm took %v to observe cancel, want < 100ms", farmReturned)
	}
}

// A quarantined task's result slot holds nothing; every other one decodes.
func TestFarmTZeroValueForQuarantined(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("sup.typed", func(n *Node, task []byte) ([]byte, error) {
		v, err := serial.Unmarshal(intC, task)
		if err != nil {
			return nil, err
		}
		if v == 2 {
			return nil, errors.New("poison")
		}
		return serial.Marshal(intC, v*10), nil
	})
	_, err := runGuarded(t, Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		tasks := [][]byte{serial.Marshal(intC, 1), serial.Marshal(intC, 2), serial.Marshal(intC, 3)}
		fr, err := s.Farm("sup.typed", tasks)
		if err != nil {
			return err
		}
		if len(fr.Failed) != 1 || fr.Failed[0].Task != 1 || fr.Results[1] != nil {
			return fmt.Errorf("Failed = %+v, Results[1] = %x", fr.Failed, fr.Results[1])
		}
		for i, want := range map[int]int{0: 10, 2: 30} {
			if v, err := serial.Unmarshal(intC, fr.Results[i]); err != nil || v != want {
				return fmt.Errorf("Results[%d] = %d (%v), want %d", i, v, err, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
