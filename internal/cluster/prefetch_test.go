package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"triolet/internal/mpi"
)

// heldTasks lists the tasks the Mux holds for worker w, oldest first.
func heldTasks(m *Mux, w int) (tasks []int) {
	for _, a := range m.busy[w] {
		tasks = append(tasks, a.Task)
	}
	return tasks
}

// TestMuxPrefetch drives the Mux against a worker that answers its tasks two
// at a time, the second first — a kernel started by Invoke that takes the
// Mux's dispatch and then stands in for the task loop: a worker holds two
// tasks and no third; a
// result frees the slot of the task it answers, wherever that sits in the
// worker's queue; retiring the worker hands both held tasks back oldest first;
// and their results, arriving after the retirement, settle nothing.
func TestMuxPrefetch(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("mux.echo", func(n *Node, task []byte) ([]byte, error) { return task, nil })
	RegisterWorker("mux.reverse", func(n *Node) error {
		if name, err := nextKernel(n); err != nil || name != muxKernelName {
			return fmt.Errorf("dispatch %q (%v), want the Mux's", name, err)
		}
		for {
			var held []MuxAssignment
			for len(held) < 2 {
				m, err := n.Comm.Recv(0, muxTaskTag)
				if err != nil {
					return err
				}
				stop, a, err := decodeMuxTask(m.Payload)
				if err != nil || stop {
					return err
				}
				held = append(held, a)
			}
			for _, a := range []MuxAssignment{held[1], held[0]} {
				if err := n.Comm.Send(0, muxResultTag, encodeMuxResult(MuxEvent{Job: a.Job, Task: a.Task, OK: true, Result: a.Payload})); err != nil {
					return err
				}
			}
		}
	})
	_, err := runGuarded(t, Config{Nodes: 2, CoresPerNode: 1, FarmHeartbeat: time.Hour}, func(s *Session) error {
		if err := s.Invoke("mux.reverse"); err != nil {
			return err
		}
		m, err := s.OpenMux(MuxOptions{})
		if err != nil {
			return err
		}
		ctx, now := context.Background(), time.Time{}
		l := NewLedger("job", "mux.echo", autoTasks(4), 3, math.MaxInt, nil)
		poll := func() MuxEvent {
			for {
				if ev, ok, err := m.Poll(); ok || err != nil {
					return ev // a Poll error leaves a zero event, which every check below refuses
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		settle := func(ev MuxEvent) Verdict {
			v, rec := l.Observe(ev, now)
			if v == VerdictResult {
				l.Commit(rec)
			}
			return v
		}
		assign := func() error {
			for range 2 {
				a, _ := l.Next(1, now)
				if err := m.Assign(ctx, 1, a); err != nil {
					return err
				}
			}
			return nil
		}

		if got := m.Idle(); !slices.Equal(got, []int{1, 1}) {
			return fmt.Errorf("empty worker offers slots %v, want [1 1]", got)
		}
		if err := assign(); err != nil {
			return err
		}
		if got := m.Idle(); len(got) != 0 || m.Assign(ctx, 1, MuxAssignment{Job: "job", Task: 3}) == nil {
			return fmt.Errorf("worker holding %v offers slots %v or takes a third task", heldTasks(m, 1), got)
		}
		for _, step := range []struct {
			task int
			held []int
			idle []int
		}{{1, []int{0}, []int{1}}, {0, nil, []int{1, 1}}} {
			ev := poll()
			if ev.Kind != MuxTaskDone || ev.Task != step.task || settle(ev) != VerdictResult {
				return fmt.Errorf("event %+v, want task %d done", ev, step.task)
			}
			if held, idle := heldTasks(m, 1), m.Idle(); !slices.Equal(held, step.held) || !slices.Equal(idle, step.idle) {
				return fmt.Errorf("after task %d: held %v, slots %v; want %v, %v", step.task, held, idle, step.held, step.idle)
			}
		}

		if err := assign(); err != nil {
			return err
		}
		m.retire(1)
		ev := poll()
		if ev.Kind != MuxWorkerLost || len(ev.Requeued) != 2 || ev.Requeued[0].Task != 2 || ev.Requeued[1].Task != 3 {
			return fmt.Errorf("retirement event %+v, want tasks 2 then 3 requeued", ev)
		}
		for _, a := range slices.Backward(ev.Requeued) {
			l.WorkerLost(1, a)
		}
		if !slices.Equal(l.Pending(), []int{2, 3}) {
			return fmt.Errorf("requeued as %v, want [2 3]", l.Pending())
		}
		for l.Settled() < 4 {
			a, _ := l.Next(0, now)
			settle(m.RunLocal(a))
		}
		for range 2 {
			if ev := poll(); ev.Worker != 1 || settle(ev) != VerdictDuplicate {
				return fmt.Errorf("late result %+v settled something", ev)
			}
		}
		if len(m.busy) != 0 || len(m.Idle()) != 0 {
			return fmt.Errorf("retired worker still holds %v or offers slots %v", m.busy, m.Idle())
		}
		return m.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMuxCrashedEmptyWorker: a worker holding nothing offers both its slots in
// one Idle list. When the send to the first finds it crashed, Assign retires
// it; the send to the second, taken from the same list, joins that
// retirement's event instead of failing the caller, so both tasks come back
// and the ledger holds no attempt for the dead worker.
func TestMuxCrashedEmptyWorker(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("mux.echo", func(n *Node, task []byte) ([]byte, error) { return task, nil })
	cfg := Config{Nodes: 2, CoresPerNode: 1, FarmHeartbeat: time.Hour, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
	_, err := runGuarded(t, cfg, func(s *Session) error {
		m, err := s.OpenMux(MuxOptions{})
		if err != nil {
			return err
		}
		s.Fabric().CrashRank(1)
		ctx, now := context.Background(), time.Time{}
		l := NewLedger("job", "mux.echo", autoTasks(3), 3, math.MaxInt, nil)
		if got := m.Idle(); !slices.Equal(got, []int{1, 1}) {
			return fmt.Errorf("empty worker offers slots %v, want [1 1]", got)
		}
		for _, w := range m.Idle() { // FarmOpts' feed: one Next per slot
			a, _ := l.Next(w, now)
			if err := m.Assign(ctx, w, a); err != nil {
				return err
			}
		}
		ev, ok, err := m.Poll()
		if err != nil || !ok || ev.Kind != MuxWorkerLost || len(ev.Requeued) != 2 || ev.Requeued[0].Task != 0 || ev.Requeued[1].Task != 1 {
			return fmt.Errorf("event %+v, %v, %v; want worker 1 lost with tasks 0 then 1", ev, ok, err)
		}
		for _, a := range slices.Backward(ev.Requeued) {
			l.WorkerLost(1, a)
		}
		if !slices.Equal(l.Pending(), []int{0, 1, 2}) || len(l.inflight) != 0 {
			return fmt.Errorf("pending %v, in flight %v; want every task queued and none in flight", l.Pending(), l.inflight)
		}
		if err := m.Assign(ctx, 1, MuxAssignment{Job: "job", Task: 2}); err == nil {
			return errors.New("assign to a worker retired in an earlier round succeeded")
		}
		return m.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMuxIdleAllocs: Idle lists one entry per free slot — the empty workers
// first, then those with room for one more — into a slice the Mux reuses.
func TestMuxIdleAllocs(t *testing.T) {
	_, err := runGuarded(t, Config{Nodes: 4, CoresPerNode: 1}, func(s *Session) error {
		m, err := s.OpenMux(MuxOptions{})
		if err != nil {
			return err
		}
		m.busy[2], m.busy[3] = make([]MuxAssignment, 1), make([]MuxAssignment, 2)
		if got := m.Idle(); !slices.Equal(got, []int{1, 1, 2}) {
			t.Errorf("slots %v, want [1 1 2]", got)
		}
		if n := testing.AllocsPerRun(100, func() { m.Idle() }); n != 0 {
			t.Errorf("Idle allocates %v times", n)
		}
		return m.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
