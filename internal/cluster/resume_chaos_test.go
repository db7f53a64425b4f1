package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/checkpoint"
)

// Checkpoint/resume under chaos: a farm job's master is killed mid-run on a
// lossy fabric, a fresh session restarts against the same WAL file, and the
// resumed job must (a) re-execute only the tasks the first life never
// finished and (b) produce results bit-identical to an undisturbed run.
// This is the acceptance scenario for the job-supervisor work.

// resumeExecs counts kernel executions across sessions in this process; the
// two lives of the job share it, so tests can assert exactly how much work
// the resume re-did.
var resumeExecs atomic.Int64

func registerResumeWork() {
	RegisterFarm("resume.work", func(n *Node, task []byte) ([]byte, error) {
		resumeExecs.Add(1)
		time.Sleep(2 * time.Millisecond) // give the killer a window mid-job
		// Deterministic transform: any scheduling or retry nondeterminism
		// in the runtime must not show through in the bytes.
		out := make([]byte, len(task)+8)
		var sum uint64
		for i, b := range task {
			out[i] = b*3 + 1
			sum += uint64(b)
		}
		binary.LittleEndian.PutUint64(out[len(task):], sum*sum)
		return out, nil
	})
}

func resumeTasks(n int) [][]byte {
	tasks := make([][]byte, n)
	for i := range tasks {
		tasks[i] = []byte{byte(i), byte(i * 7), byte(i * 31)}
	}
	return tasks
}

func TestFarmResumeFromWALAfterMasterKilledUnderChaos(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	registerResumeWork()
	const nTasks = 40
	tasks := resumeTasks(nTasks)

	// Golden run: no faults, no checkpoint — the reference bytes.
	var golden [][]byte
	if _, err := runGuarded(t, Config{Nodes: 4, CoresPerNode: 1}, func(s *Session) error {
		fr, err := s.Farm("resume.work", tasks)
		if err != nil {
			return err
		}
		golden = fr.Results
		return nil
	}); err != nil {
		t.Fatalf("golden run: %v", err)
	}

	walPath := filepath.Join(t.TempDir(), "job.wal")
	wal, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// First life: lossy fabric, and the master is killed (context cancel —
	// the in-process stand-in for kill -9) once at least 10 tasks have
	// reached the WAL.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			if wal.Records() >= 10 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	resumeExecs.Store(0)
	_, err = RunCtx(ctx, Config{
		Nodes: 4, CoresPerNode: 1,
		Fault:    chaosProfile(41),
		Reliable: fastRetry(),
	}, func(s *Session) error {
		_, err := s.FarmOpts("resume.work", tasks, FarmOptions{Checkpoint: wal, Job: "resume-job"})
		return err
	})
	<-killed
	if err == nil {
		t.Fatal("first life finished before the kill; lower the kill threshold")
	}
	firstLifeExecs := resumeExecs.Load()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: a brand-new session reopens the WAL from disk (re-scan,
	// torn-tail handling) and finishes the job, still under chaos.
	wal2, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	defer wal2.Close()
	checkpointed := wal2.Records()
	if checkpointed < 10 {
		t.Fatalf("WAL lost records across the crash: %d on disk, want >= 10", checkpointed)
	}
	resumeExecs.Store(0)
	var resumed *FarmResult
	if _, err := runGuarded(t, Config{
		Nodes: 4, CoresPerNode: 1,
		Fault:    chaosProfile(43),
		Reliable: fastRetry(),
	}, func(s *Session) error {
		fr, err := s.FarmOpts("resume.work", tasks, FarmOptions{Checkpoint: wal2, Job: "resume-job"})
		resumed = fr
		return err
	}); err != nil {
		t.Fatalf("second life: %v", err)
	}

	if resumed.Resumed != checkpointed {
		t.Fatalf("Resumed = %d, want every checkpointed task (%d)", resumed.Resumed, checkpointed)
	}
	if got, want := resumeExecs.Load(), int64(nTasks-checkpointed); got != want {
		t.Fatalf("second life executed %d tasks, want exactly the %d unfinished ones", got, want)
	}
	if len(resumed.Failed) != 0 {
		t.Fatalf("chaos quarantined tasks: %+v", resumed.Failed)
	}
	for i := range golden {
		if !bytes.Equal(resumed.Results[i], golden[i]) {
			t.Fatalf("task %d: resumed result %x != golden %x", i, resumed.Results[i], golden[i])
		}
	}
	t.Logf("first life: %d executed, %d checkpointed; second life re-executed %d",
		firstLifeExecs, checkpointed, nTasks-checkpointed)
}
