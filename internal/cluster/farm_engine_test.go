package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"triolet/internal/trace"
	"triolet/internal/transport"
)

// One engine, every way in: the same task list — four clean tasks, one
// that always errors, one that always panics — through Farm on one node
// (where a master-local plan runs too), Farm on three nodes, and Farm with
// every worker crashed right after the dispatch handshake. The
// per-task outcome and the failure accounting must not depend on the path;
// only who ran the tasks (MasterRan, Lost) may.
func TestFarmOneEngineEveryPath(t *testing.T) {
	const errTask, panicTask = 2, 4
	tasks := autoTasks(6)
	tasks[errTask] = []byte{0xFF, 1}
	tasks[panicTask] = []byte{0xFE, 1}
	kernel := func(n *Node, task []byte) ([]byte, error) {
		switch task[0] {
		case 0xFF:
			return nil, errors.New("always fails")
		case 0xFE:
			panic("boom")
		}
		return []byte{task[0] * 2, task[1] + 1}, nil
	}
	opt := FarmOptions{MaxAttempts: 2}
	rows := []struct {
		name      string
		cfg       Config
		masterRan int
		lost      []int
	}{
		{"farm-1node", Config{Nodes: 1}, 4, nil},
		{"farm-3nodes", Config{Nodes: 3}, 0, nil},
		{"farm-3nodes-all-crashed", Config{
			Nodes:    3,
			Reliable: fastRetry(),
			// Each worker dies after its first send, the dispatch ack: the
			// master is the job's last resort and must run every task itself.
			Fault: &transport.FaultConfig{Seed: 4, Crashes: []transport.Crash{
				{Rank: 1, AfterSends: 1}, {Rank: 2, AfterSends: 1},
			}},
		}, 4, []int{1, 2}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			workerKernels.reset()
			farmKernels.reset()
			RegisterFarm("engine.mixed", kernel)
			tr := trace.New()
			row.cfg.CoresPerNode = 1
			row.cfg.Tracer = tr
			var fr *FarmResult
			if _, err := runGuarded(t, row.cfg, func(s *Session) (err error) {
				fr, err = s.FarmOpts("engine.mixed", tasks, opt)
				return err
			}); err != nil {
				t.Fatalf("session: %v", err)
			}
			for i, task := range tasks {
				want := []byte{task[0] * 2, task[1] + 1}
				if i == errTask || i == panicTask {
					want = nil
				}
				if !bytes.Equal(fr.Results[i], want) {
					t.Errorf("result %d = %v, want %v", i, fr.Results[i], want)
				}
			}
			if len(fr.Failed) != 2 || fr.Failed[0].Task != errTask || fr.Failed[1].Task != panicTask {
				t.Fatalf("Failed = %+v, want tasks %d and %d in order", fr.Failed, errTask, panicTask)
			}
			for i, text := range []string{"always fails", "panicked: boom"} {
				if f := fr.Failed[i]; f.Attempts != 2 || !strings.Contains(f.Err, text) {
					t.Errorf("quarantine record = %+v, want 2 attempts and %q", f, text)
				}
			}
			if fr.Retried != 2 {
				t.Errorf("Retried = %d, want 2 (one re-execution per poison task)", fr.Retried)
			}
			if fr.MasterRan != row.masterRan {
				t.Errorf("MasterRan = %d, want %d", fr.MasterRan, row.masterRan)
			}
			if fmt.Sprint(fr.Lost) != fmt.Sprint(row.lost) {
				t.Errorf("Lost = %v, want %v", fr.Lost, row.lost)
			}
			if got := tr.Count("farm.task-fail"); got != 4 {
				t.Errorf("farm.task-fail instants = %d, want 4", got)
			}
			if got := tr.InstantValues("farm.quarantine"); len(got) != 2 {
				t.Errorf("farm.quarantine instants = %v, want one per poison task", got)
			}
		})
	}
}

// A worker written off during one farm call must not be able to answer the
// next one. Call 1's worker goes silent inside task 0 and is retired; the
// master finishes call 1 itself and starts call 2, whose task 0 goes to the
// same (live again) worker. The worker then wakes and delivers call 1's
// task 0. The result frame names the call it belongs to, so call 2 drops it
// and waits for its own task 0.
func TestFarmDropsStragglerResultFromEarlierCall(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("engine.straggler", func(n *Node, task []byte) ([]byte, error) {
		if !n.IsRoot() && task[0] == 'o' {
			time.Sleep(150 * time.Millisecond) // far beyond call 1's heartbeat timeout
		}
		return append([]byte("out:"), task...), nil
	})
	_, err := runGuarded(t, Config{
		Nodes: 2, CoresPerNode: 1,
		FarmHeartbeat: time.Hour, // beats never arrive: the worker reads as silent
	}, func(s *Session) error {
		first, err := s.FarmOpts("engine.straggler", [][]byte{[]byte("old0"), []byte("old1")},
			FarmOptions{HeartbeatTimeout: 20 * time.Millisecond})
		if err != nil {
			return err
		}
		if len(first.Lost) != 1 || first.MasterRan != 2 {
			return fmt.Errorf("call 1: Lost = %v, MasterRan = %d; want the worker retired and both tasks on the master",
				first.Lost, first.MasterRan)
		}
		// Heartbeat retirement off: call 2 waits for the worker, so the
		// straggler lands while task 0 of this call is in flight on it.
		second, err := s.FarmOpts("engine.straggler", [][]byte{[]byte("new0"), []byte("new1")},
			FarmOptions{HeartbeatTimeout: -1})
		if err != nil {
			return err
		}
		for i, want := range []string{"out:new0", "out:new1"} {
			if got := string(second.Results[i]); got != want {
				return fmt.Errorf("call 2 result %d = %q, want %q", i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
