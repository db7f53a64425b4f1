package cluster

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// farmOn runs one farm call on a fresh cluster of cfg's shape, one core a node.
func farmOn(cfg Config, name string, tasks [][]byte, opt FarmOptions) (*FarmResult, transport.Stats, error) {
	cfg.CoresPerNode = 1
	var fr *FarmResult
	stats, err := Run(cfg, func(s *Session) error {
		var err error
		fr, err = s.FarmOpts(name, tasks, opt)
		return err
	})
	return fr, stats, err
}

func autoTasks(n int) [][]byte {
	tasks := make([][]byte, n)
	for i := range tasks {
		tasks[i] = []byte{byte(i), byte(i * 3)}
	}
	return tasks
}

// A four-node farm produces the same bytes as a master-only one, and
// moves real fabric traffic.
func TestFarmAutoDistributedMatchesLocal(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("auto.xform", func(n *Node, task []byte) ([]byte, error) {
		out := append([]byte{0xAB}, task...)
		return out, nil
	})
	tasks := autoTasks(12)

	local, _, err := farmOn(Config{Nodes: 1}, "auto.xform", tasks, FarmOptions{})
	if err != nil {
		t.Fatalf("local farm: %v", err)
	}
	dist, stats, err := farmOn(Config{Nodes: 4}, "auto.xform", tasks, FarmOptions{})
	if err != nil {
		t.Fatalf("distributed farm: %v", err)
	}
	for i := range tasks {
		if !bytes.Equal(local.Results[i], dist.Results[i]) {
			t.Fatalf("task %d: local %v != distributed %v", i, local.Results[i], dist.Results[i])
		}
	}
	if stats.Bytes == 0 {
		t.Fatal("distributed run moved no fabric bytes")
	}
}

// timedPolicy hands out one job's tasks in order, to whichever slot is free,
// and keeps each task's reported kernel time.
type timedPolicy struct {
	kernel  string
	tasks   [][]byte
	next    int
	elapsed map[int]time.Duration
}

func (p *timedPolicy) Dispatch(idle []int, _ time.Time, assign func(int, MuxAssignment) error) error {
	for _, w := range idle {
		if p.next == len(p.tasks) {
			return nil
		}
		if err := assign(w, MuxAssignment{Job: "timed", Kernel: p.kernel, Task: p.next, Payload: p.tasks[p.next]}); err != nil {
			return err
		}
		p.next++
	}
	return nil
}

func (p *timedPolicy) Settle(ev MuxEvent, _ time.Time) error {
	if ev.Kind == MuxTaskDone && ev.OK {
		p.elapsed[ev.Task] = ev.Elapsed
	}
	return nil
}

func (p *timedPolicy) Deadline(time.Time) time.Time { return time.Time{} }

func (p *timedPolicy) Done() bool { return len(p.elapsed) == len(p.tasks) }

// Every executed task reports its kernel time on its MuxTaskDone event (what
// the job service sums into task-seconds), on the master alone and with
// workers, where it is carried back on the result frame.
func TestFarmAutoTaskTimings(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	const sleep = 200 * time.Microsecond
	RegisterFarm("auto.timed", func(n *Node, task []byte) ([]byte, error) {
		time.Sleep(sleep)
		return task, nil
	})
	tasks := autoTasks(8)

	for _, nodes := range []int{1, 3} {
		p := &timedPolicy{kernel: "auto.timed", tasks: tasks, elapsed: make(map[int]time.Duration)}
		_, err := Run(Config{Nodes: nodes, CoresPerNode: 1}, func(s *Session) error {
			mux, err := s.OpenMux(MuxOptions{})
			if err != nil {
				return err
			}
			if err := mux.Drive(s.node.Comm.Context(), p); err != nil {
				return err
			}
			return mux.Close()
		})
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		for task := range tasks {
			if d, ok := p.elapsed[task]; !ok || d < sleep {
				t.Fatalf("%d nodes: task %d timed %v (reported %v), want >= %v", nodes, task, d, ok, sleep)
			}
		}
	}
}

// A master-only farm resumes from a checkpoint store exactly like the
// distributed farm: stored tasks are returned bit-identically and never re-executed.
func TestFarmLocalCheckpointResume(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	executed := make(map[byte]bool)
	var mu sync.Mutex
	RegisterFarm("auto.ckpt", func(n *Node, task []byte) ([]byte, error) {
		mu.Lock()
		executed[task[0]] = true
		mu.Unlock()
		return append([]byte("out:"), task...), nil
	})
	store := checkpoint.NewMem()
	if err := store.Append(checkpoint.Record{
		Job: "auto-j", Task: 0, Kind: checkpoint.KindResult, Payload: []byte("stored"),
	}); err != nil {
		t.Fatal(err)
	}
	tasks := [][]byte{{10}, {11}, {12}}
	tr := trace.New()

	fr, _, err := farmOn(Config{Nodes: 1, Tracer: tr}, "auto.ckpt", tasks, FarmOptions{Checkpoint: store, Job: "auto-j"})
	if err != nil {
		t.Fatalf("farm: %v", err)
	}
	if fr.Resumed != 1 {
		t.Fatalf("Resumed = %d, want 1", fr.Resumed)
	}
	if !bytes.Equal(fr.Results[0], []byte("stored")) {
		t.Fatalf("resumed result = %q, want stored bytes", fr.Results[0])
	}
	mu.Lock()
	ran0 := executed[10]
	mu.Unlock()
	if ran0 {
		t.Fatal("checkpointed task re-executed")
	}
	if got := tr.InstantValues("farm.resume"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("farm.resume instants = %v, want [1]", got)
	}
	// All three tasks are now durable: a fresh run resumes everything.
	fr2, _, err := farmOn(Config{Nodes: 1}, "auto.ckpt", tasks, FarmOptions{Checkpoint: store, Job: "auto-j"})
	if err != nil {
		t.Fatalf("second farm: %v", err)
	}
	if fr2.Resumed != len(tasks) {
		t.Fatalf("second run Resumed = %d, want %d", fr2.Resumed, len(tasks))
	}
	for i := range tasks {
		if !bytes.Equal(fr2.Results[i], fr.Results[i]) {
			t.Fatalf("resumed result %d diverged: %q vs %q", i, fr2.Results[i], fr.Results[i])
		}
	}
}
