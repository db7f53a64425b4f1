package cluster

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/trace"
)

func autoTasks(n int) [][]byte {
	tasks := make([][]byte, n)
	for i := range tasks {
		tasks[i] = []byte{byte(i), byte(i * 3)}
	}
	return tasks
}

// A master-local plan runs every task on the master and still leaves the
// full predicted/observed instant quartet on the tracer.
func TestFarmAutoLocalRecordsPlanInstants(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("auto.double", func(n *Node, task []byte) ([]byte, error) {
		out := make([]byte, len(task))
		for i, b := range task {
			out[i] = b * 2
		}
		return out, nil
	})
	tr := trace.New()
	tasks := autoTasks(6)
	plan := FarmPlan{Distribute: false, Nodes: 1, Label: "auto-local",
		PredictedSeconds: 0.0025, PredictedBytes: 123}

	fr, _, err := AutoFarm(Config{CoresPerNode: 1, Tracer: tr}, plan, "auto.double", tasks, FarmOptions{})
	if err != nil {
		t.Fatalf("AutoFarm: %v", err)
	}
	if fr.MasterRan != len(tasks) {
		t.Fatalf("MasterRan = %d, want %d (local plan)", fr.MasterRan, len(tasks))
	}
	for i, task := range tasks {
		want := []byte{task[0] * 2, task[1] * 2}
		if !bytes.Equal(fr.Results[i], want) {
			t.Fatalf("result %d = %v, want %v", i, fr.Results[i], want)
		}
	}
	if got := tr.InstantValues("plan.predicted"); len(got) != 1 || got[0] != 2500 {
		t.Fatalf("plan.predicted = %v, want [2500] µs", got)
	}
	if got := tr.InstantValues("plan.predicted-bytes"); len(got) != 1 || got[0] != 123 {
		t.Fatalf("plan.predicted-bytes = %v, want [123]", got)
	}
	if got := tr.InstantValues("plan.observed"); len(got) != 1 || got[0] < 0 {
		t.Fatalf("plan.observed = %v, want one non-negative instant", got)
	}
	if got := tr.InstantValues("plan.observed-bytes"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("plan.observed-bytes = %v, want [0] for a local run", got)
	}
}

// A distributing plan sizes the cluster from the plan, produces the same
// bytes as the local path, and observes real fabric traffic.
func TestFarmAutoDistributedMatchesLocal(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("auto.xform", func(n *Node, task []byte) ([]byte, error) {
		out := append([]byte{0xAB}, task...)
		return out, nil
	})
	tasks := autoTasks(12)

	local, _, err := AutoFarm(Config{CoresPerNode: 1}, FarmPlan{Distribute: false}, "auto.xform", tasks, FarmOptions{})
	if err != nil {
		t.Fatalf("local AutoFarm: %v", err)
	}
	tr := trace.New()
	dist, stats, err := AutoFarm(Config{CoresPerNode: 1, Tracer: tr},
		FarmPlan{Distribute: true, Nodes: 4, Label: "auto-dist"}, "auto.xform", tasks, FarmOptions{})
	if err != nil {
		t.Fatalf("distributed AutoFarm: %v", err)
	}
	for i := range tasks {
		if !bytes.Equal(local.Results[i], dist.Results[i]) {
			t.Fatalf("task %d: local %v != distributed %v", i, local.Results[i], dist.Results[i])
		}
	}
	if stats.Bytes == 0 {
		t.Fatal("distributed run moved no fabric bytes")
	}
	obs := tr.InstantValues("plan.observed-bytes")
	if len(obs) != 1 || obs[0] <= 0 {
		t.Fatalf("plan.observed-bytes = %v, want one positive instant", obs)
	}
}

// The local path reports every task's kernel time exactly once; the
// distributed path delivers timings on the result frames with valid
// indices, positive durations, and no duplicates.
func TestFarmAutoTaskTimings(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("auto.timed", func(n *Node, task []byte) ([]byte, error) {
		time.Sleep(200 * time.Microsecond)
		return task, nil
	})
	tasks := autoTasks(8)

	collect := func(plan FarmPlan) map[int]time.Duration {
		var mu sync.Mutex
		seen := make(map[int]time.Duration)
		opt := FarmOptions{OnTaskTiming: func(task int, d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[task]; dup {
				t.Errorf("task %d timed twice", task)
			}
			seen[task] = d
		}}
		if _, _, err := AutoFarm(Config{CoresPerNode: 1}, plan, "auto.timed", tasks, opt); err != nil {
			t.Fatalf("AutoFarm: %v", err)
		}
		return seen
	}

	local := collect(FarmPlan{Distribute: false})
	if len(local) != len(tasks) {
		t.Fatalf("local path timed %d/%d tasks", len(local), len(tasks))
	}
	dist := collect(FarmPlan{Distribute: true, Nodes: 3})
	if len(dist) == 0 {
		t.Fatal("distributed path delivered no timing beats")
	}
	for task, d := range dist {
		if task < 0 || task >= len(tasks) {
			t.Fatalf("timing for out-of-range task %d", task)
		}
		if d <= 0 {
			t.Fatalf("task %d has non-positive duration %v", task, d)
		}
	}
}

// A master-local plan resumes from a checkpoint store exactly like the
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

	fr, _, err := AutoFarm(Config{CoresPerNode: 1, Tracer: tr}, FarmPlan{Distribute: false},
		"auto.ckpt", tasks, FarmOptions{Checkpoint: store, Job: "auto-j"})
	if err != nil {
		t.Fatalf("AutoFarm: %v", err)
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
	fr2, _, err := AutoFarm(Config{CoresPerNode: 1}, FarmPlan{Distribute: false},
		"auto.ckpt", tasks, FarmOptions{Checkpoint: store, Job: "auto-j"})
	if err != nil {
		t.Fatalf("second AutoFarm: %v", err)
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
