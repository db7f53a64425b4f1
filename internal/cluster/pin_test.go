package cluster

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/mpi"
	"triolet/internal/transport"
)

// TestLedgerPins holds the ledger to what FarmOptions.Pin documents: without
// pins Next hands tasks out in queue order to whoever asks; with them a task
// goes to its rank and to no other, a lost worker's pinned task returns to
// the head of the queue and still waits for that rank, a replayed record
// settles a pinned task like any other, and Strand gives up exactly the
// unsettled tasks of the rank it is told is gone.
func TestLedgerPins(t *testing.T) {
	now := time.Time{}
	next := func(l *Ledger, worker int) int {
		t.Helper()
		a, ok := l.Next(worker, now)
		if !ok {
			return -1
		}
		return a.Task
	}
	free := NewLedger("job", "kernel", autoTasks(4), 3, math.MaxInt, nil)
	for want, worker := range []int{3, 1, 1, 0} {
		if got := next(free, worker); got != want {
			t.Fatalf("unpinned: worker %d got task %d, want %d", worker, got, want)
		}
	}
	if free.Strand(1) != 0 || free.Settled() != 0 {
		t.Fatal("Strand touched a ledger without pins")
	}

	l := NewLedger("job", "kernel", autoTasks(5), 3, math.MaxInt, nil)
	for task, rank := range []int16{2, 1, 2, 0, 2} {
		l.state[task].pin = rank
	}
	for _, step := range []struct{ worker, want int }{{1, 1}, {1, -1}, {3, -1}, {2, 0}, {0, 3}, {0, -1}} {
		if got := next(l, step.worker); got != step.want {
			t.Fatalf("pinned: worker %d got task %d, want %d", step.worker, got, step.want)
		}
	}
	if !l.WorkerLost(2, MuxAssignment{Job: "job", Task: 0}) || l.Pending()[0] != 0 {
		t.Fatalf("lost worker's pinned task not requeued at the head: %v", l.Pending())
	}
	if got := next(l, 1); got != -1 {
		t.Fatalf("requeued task pinned to 2 handed to worker 1 (task %d)", got)
	}
	if !l.Replay(checkpoint.Record{Job: "job", Task: 2, Kind: checkpoint.KindResult, Payload: []byte("r")}) || l.Resumed != 1 {
		t.Fatal("replay of a pinned task's record did not settle it")
	}
	if n := l.Strand(2); n != 2 {
		t.Fatalf("Strand(2) gave up %d tasks, want 2 (task 2 had settled)", n)
	}
	var stranded []int
	for _, f := range l.Failed {
		if f.Attempts != 0 || f.Err != ErrPinLost.Error() {
			t.Errorf("stranded task recorded as %+v", f)
		}
		stranded = append(stranded, f.Task)
	}
	if !slices.Equal(stranded, []int{0, 4}) || l.Settled() != 3 || len(l.Pending()) != 0 || l.Strand(2) != 0 {
		t.Fatalf("after Strand: failed %v, settled %d, pending %v", stranded, l.Settled(), l.Pending())
	}
}

// TestFarmPinnedTasks runs a pinned farm end to end: every task runs on the
// rank its pin names, the master's among them while workers are alive; a pin
// that names no node is refused; and when a pinned worker is dead the call
// finishes the other tasks and reports ErrPinLost.
func TestFarmPinnedTasks(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("pin.rank", func(n *Node, task []byte) ([]byte, error) { return []byte{byte(n.Rank())}, nil })
	pins := []int{0, 1, 2, 1, 0, 2}
	for _, dead := range []int{0, 2} {
		cfg := Config{Nodes: 3, CoresPerNode: 1, Reliable: fastRetry()}
		if dead > 0 {
			cfg.Fault = &transport.FaultConfig{Seed: 8, Crashes: []transport.Crash{{Rank: dead, AfterSends: 0}}}
		}
		var res *FarmResult
		_, err := runGuarded(t, cfg, func(s *Session) error {
			if _, err := s.FarmOpts("pin.rank", autoTasks(2), FarmOptions{Pin: []int{0, 3}}); err == nil ||
				!strings.Contains(err.Error(), "pins") {
				t.Errorf("pin to a rank past the cluster: %v", err)
			}
			var err error
			res, err = s.FarmOpts("pin.rank", autoTasks(len(pins)), FarmOptions{Pin: pins})
			if (dead > 0) != errors.Is(err, ErrPinLost) {
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatalf("dead %d: %v", dead, err)
		}
		for task, out := range res.Results {
			if pins[task] == dead && dead > 0 {
				if out != nil {
					t.Errorf("dead %d: task %d pinned to it has result %v", dead, task, out)
				}
			} else if len(out) != 1 || int(out[0]) != pins[task] {
				t.Errorf("dead %d: task %d pinned to %d ran on %v", dead, task, pins[task], out)
			}
		}
		if res.MasterRan != 2 || (dead > 0) != (len(res.Failed) == 2 && slices.Equal(res.Lost, []int{dead})) {
			t.Errorf("dead %d: MasterRan %d, Failed %+v, Lost %v", dead, res.MasterRan, res.Failed, res.Lost)
		}
	}
}

// TestFarmShipsPinnedShare: a pinned task can run nowhere but on its rank, so
// a pinned farm call sends each worker its whole share on its first turn. By
// the time the master starts the first of its own two tasks, the frames it has
// sent are the dispatch and all six of worker 1's tasks, not the two a
// worker's unpinned prefetch allows. The fabric is lossless and beats are
// off, so nothing else is sent.
func TestFarmShipsPinnedShare(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	var base, sentAtFirst int64 = 0, -1 // written by the master's goroutine only
	RegisterFarm("pin.sent", func(n *Node, task []byte) ([]byte, error) {
		if n.Rank() == 0 && sentAtFirst < 0 {
			sentAtFirst = n.Comm.ReliableStats().FramesSent - base
		}
		return []byte{byte(n.Rank())}, nil
	})
	pins := []int{0, 1, 1, 1, 0, 1, 1, 1}
	cfg := Config{Nodes: 2, CoresPerNode: 1, FarmHeartbeat: time.Hour, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
	_, err := runGuarded(t, cfg, func(s *Session) error {
		base = s.node.Comm.ReliableStats().FramesSent
		res, err := s.FarmOpts("pin.sent", autoTasks(len(pins)), FarmOptions{Pin: pins})
		if err != nil {
			return err
		}
		for task, out := range res.Results {
			if len(out) != 1 || int(out[0]) != pins[task] {
				t.Errorf("task %d pinned to %d ran on %v", task, pins[task], out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sentAtFirst != 1+6 {
		t.Fatalf("%d frames sent when the master's first task started, want the dispatch and 6 tasks", sentAtFirst)
	}
}

// BenchmarkFarmOptsPinnedRound prices one pinned FarmOpts round of no-op
// tasks on 2 reliable nodes — what a stencil.FarmOp sweep pays besides its
// kernels: "split" pins 8 tasks 4/4 like a life-farm sweep, "master" runs 4
// on the master alone, "worker" ships 4 to the worker. One op is one round.
func BenchmarkFarmOptsPinnedRound(b *testing.B) {
	farmKernels.reset()
	RegisterFarm("pin.noop", func(*Node, []byte) ([]byte, error) { return []byte{0}, nil })
	for _, bc := range []struct {
		name string
		pins []int
	}{
		{"split", []int{0, 0, 0, 0, 1, 1, 1, 1}},
		{"master", []int{0, 0, 0, 0}},
		{"worker", []int{1, 1, 1, 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{Nodes: 2, CoresPerNode: 1, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
			tasks := autoTasks(len(bc.pins))
			_, err := Run(cfg, func(s *Session) error {
				b.ResetTimer()
				for range b.N {
					if _, err := s.FarmOpts("pin.noop", tasks, FarmOptions{Pin: bc.pins}); err != nil {
						return err
					}
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
