package diffcheck

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/jobs"
	"triolet/internal/serial"
	"triolet/internal/stencil"
	"triolet/internal/transport"
)

// Crash-point enumeration (ROADMAP 4(a)): every durable write a run makes is
// a place the master can die. For each client of the task ledger — a
// Session.FarmOpts job, stencil.FarmOp's job@<sweep> rounds, and a two-job
// jobs.Service that compacts its registry — the run is first executed
// undisturbed to learn its write history, then once per write k and per way
// of dying there (the record lost; the record durable but the caller killed
// before it could Commit), and resumed on the same store. The resumed run
// must reach the undisturbed outcome with the same durable task records, no
// task that had a durable record may execute again, and every other task
// executes exactly as often as in an undisturbed run.

var errCrashed = errors.New("crash point: master died at this write")

// crashStore numbers a store's durable writes, logs the task records that
// became durable, and dies at one chosen write: from then on nothing is
// written and every call fails, as for a dead process, until revive.
type crashStore struct {
	checkpoint.Store

	mu                  sync.Mutex
	appends, compacts   int
	atAppend, atCompact int  // 1-based write to die at; 0 = never
	lose                bool // the fatal write is lost, not durable-then-killed
	dead                bool
	// tasks is every durable result/quarantine record by "job/task"; twice
	// holds keys that were written a second time.
	tasks map[string]checkpoint.Record
	twice []string
}

func newCrashStore() *crashStore {
	return &crashStore{Store: checkpoint.NewMem(), tasks: map[string]checkpoint.Record{}}
}

func taskKey(job string, task int) string { return fmt.Sprintf("%s/%d", job, task) }

func (c *crashStore) Append(rec checkpoint.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errCrashed
	}
	c.appends++
	fatal := c.appends == c.atAppend
	if fatal {
		c.dead = true
		if c.lose {
			return errCrashed
		}
	}
	if err := c.Store.Append(rec); err != nil {
		return err
	}
	if rec.Kind == checkpoint.KindResult || rec.Kind == checkpoint.KindFailed {
		key := taskKey(rec.Job, rec.Task)
		if _, dup := c.tasks[key]; dup {
			c.twice = append(c.twice, key)
		}
		rec.Payload = bytes.Clone(rec.Payload)
		c.tasks[key] = rec
	}
	if fatal {
		return errCrashed
	}
	return nil
}

func (c *crashStore) Compact(keep func(checkpoint.Record) bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errCrashed
	}
	c.compacts++
	fatal := c.compacts == c.atCompact
	if fatal {
		c.dead = true
		if c.lose {
			return errCrashed
		}
	}
	if err := c.Store.Compact(keep); err != nil {
		return err
	}
	if fatal {
		return errCrashed
	}
	return nil
}

// revive restarts the process: the store writes again and never dies. It
// returns which task records were durable at the moment of death.
func (c *crashStore) revive() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead, c.atAppend, c.atCompact = false, 0, 0
	durable := make(map[string]bool, len(c.tasks))
	for key := range c.tasks {
		durable[key] = true
	}
	return durable
}

// crashClient is one ledger client under enumeration.
type crashClient struct {
	// life is one process lifetime over store: it runs the workload to
	// completion and returns its outcome, or dies with the store.
	life func(store checkpoint.Store) (any, error)
	// same compares a resumed outcome with the undisturbed one.
	same func(base, got any) error
	// reset zeroes the kernels' execution counters.
	reset func()
	// executed checks the counters after a lifetime that began with the
	// durable task records given (none for an undisturbed run).
	executed func(durable map[string]bool) error
}

// crashLifetime runs one session on three single-core nodes (cfg supplies
// the fabric) and bounds it: a hang is the failure mode.
func crashLifetime(cfg cluster.Config, master func(*cluster.Session) error) error {
	cfg.Nodes, cfg.CoresPerNode = 3, 1
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			crashFabric.Store(s.Fabric())
			return master(s)
		})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		return errors.New("lifetime hung")
	}
}

// enumerateCrashPoints runs c undisturbed, then kills and resumes it at every
// write of that history, and returns the history's size.
func enumerateCrashPoints(t *testing.T, c crashClient) (appends, compacts int) {
	t.Helper()
	base := newCrashStore()
	c.reset()
	want, err := c.life(base)
	if err != nil {
		t.Fatalf("undisturbed run: %v", err)
	}
	if err := c.executed(nil); err != nil {
		t.Fatalf("undisturbed run: %v", err)
	}
	if len(base.twice) > 0 {
		t.Fatalf("undisturbed run wrote task records twice: %v", base.twice)
	}

	point := func(name string, arm func(*crashStore)) {
		store := newCrashStore()
		arm(store)
		c.reset()
		if _, err := c.life(store); !errors.Is(err, errCrashed) {
			t.Fatalf("%s: first life ended with %v, want the crash", name, err)
		}
		durable := store.revive()
		c.reset()
		got, err := c.life(store)
		if err != nil {
			t.Fatalf("%s: resumed life: %v", name, err)
		}
		if err := c.same(want, got); err != nil {
			t.Fatalf("%s: resumed outcome: %v", name, err)
		}
		if err := c.executed(durable); err != nil {
			t.Fatalf("%s: resumed life: %v", name, err)
		}
		if len(store.twice) > 0 {
			t.Fatalf("%s: task records written twice: %v", name, store.twice)
		}
		if len(store.tasks) != len(base.tasks) {
			t.Fatalf("%s: %d durable task records, undisturbed run has %d", name, len(store.tasks), len(base.tasks))
		}
		for key, w := range base.tasks {
			g := store.tasks[key]
			if g.Kind != w.Kind || g.Attempts != w.Attempts || !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("%s: record %s = {kind %d, attempts %d, %q}, undisturbed {kind %d, attempts %d, %q}",
					name, key, g.Kind, g.Attempts, g.Payload, w.Kind, w.Attempts, w.Payload)
			}
		}
	}
	for _, lose := range []bool{true, false} {
		how := map[bool]string{true: "lost", false: "durable, uncommitted"}[lose]
		for k := 1; k <= base.appends; k++ {
			point(fmt.Sprintf("append %d of %d %s", k, base.appends, how),
				func(s *crashStore) { s.atAppend, s.lose = k, lose })
		}
		for k := 1; k <= base.compacts; k++ {
			point(fmt.Sprintf("compact %d of %d %s", k, base.compacts, how),
				func(s *crashStore) { s.atCompact, s.lose = k, lose })
		}
	}
	return base.appends, base.compacts
}

// crashRuns counts diffcheck.crashfarm executions by task payload.
var crashRuns sync.Map // string(payload) -> *atomic.Int64

// crashAttempts is every client's attempt limit per task: the farm's fixed
// one, and what the job specs set.
const crashAttempts = 3

// crashFabric is the fabric of the running lifetime (crashLifetime).
var crashFabric atomic.Pointer[transport.Fabric]

func init() {
	// Payloads starting 0xFF always fail, 0xFE fails its first execution
	// since the last reset, 0xFD takes 3ms, 0xFC kills the worker rank that
	// runs its first execution since the last reset (its result is lost
	// with it); all others echo with a tag.
	cluster.RegisterFarm("diffcheck.crashfarm", func(n *cluster.Node, task []byte) ([]byte, error) {
		ctr, _ := crashRuns.LoadOrStore(string(task), new(atomic.Int64))
		run := ctr.(*atomic.Int64).Add(1)
		switch {
		case task[0] == 0xFF:
			return nil, errors.New("poison task")
		case task[0] == 0xFE && run == 1:
			return nil, errors.New("transient failure")
		case task[0] == 0xFD:
			time.Sleep(3 * time.Millisecond)
		case task[0] == 0xFC && run == 1 && !n.IsRoot():
			crashFabric.Load().CrashRank(n.Rank())
		}
		return crashResult(task), nil
	})
}

func crashResult(task []byte) []byte { return append([]byte("done:"), task...) }

// crashTasks builds n payloads unique to job, the poison-th one (if any)
// poisoned.
func crashTasks(job byte, n, poison int) [][]byte {
	tasks := make([][]byte, n)
	for i := range tasks {
		tasks[i] = []byte{job, byte(i)}
	}
	if poison >= 0 {
		tasks[poison][0] = 0xFF
	}
	return tasks
}

// crashExecuted checks crashRuns for the named jobs' tasks: nothing that had
// a durable record ran, everything else ran once, or crashAttempts times if
// poisoned.
func crashExecuted(jobs map[string][][]byte) func(map[string]bool) error {
	return func(durable map[string]bool) error {
		for job, tasks := range jobs {
			for i, task := range tasks {
				want := int64(1)
				if task[0] == 0xFF {
					want = crashAttempts
				}
				if durable[taskKey(job, i)] {
					want = 0
				}
				if got := crashRunCount(task); got != want {
					return fmt.Errorf("task %s executed %d times, want %d (had a durable record: %v)",
						taskKey(job, i), got, want, durable[taskKey(job, i)])
				}
			}
		}
		return nil
	}
}

func resetCrashRuns() { crashRuns.Clear() }

// crashRunCount is how often task executed since the last reset.
func crashRunCount(task []byte) int64 {
	if ctr, ok := crashRuns.Load(string(task)); ok {
		return ctr.(*atomic.Int64).Load()
	}
	return 0
}

func sameFarmResult(base, got any) error {
	w, g := base.(*cluster.FarmResult), got.(*cluster.FarmResult)
	if len(g.Results) != len(w.Results) || fmt.Sprint(g.Failed) != fmt.Sprint(w.Failed) {
		return fmt.Errorf("results %d, failed %v; undisturbed %d, %v", len(g.Results), g.Failed, len(w.Results), w.Failed)
	}
	for i := range w.Results {
		if !bytes.Equal(g.Results[i], w.Results[i]) {
			return fmt.Errorf("result %d = %q, undisturbed %q", i, g.Results[i], w.Results[i])
		}
	}
	return nil
}

// A Session.FarmOpts job of twelve tasks, one poisoned.
func TestCrashPointFarm(t *testing.T) {
	tasks := crashTasks('f', 12, 5)
	appends, _ := enumerateCrashPoints(t, crashClient{
		life: func(store checkpoint.Store) (any, error) {
			var fr *cluster.FarmResult
			err := crashLifetime(cluster.Config{}, func(s *cluster.Session) (err error) {
				fr, err = s.FarmOpts("diffcheck.crashfarm", tasks,
					cluster.FarmOptions{Checkpoint: store, Job: "farm"})
				return err
			})
			return fr, err
		},
		same:     sameFarmResult,
		reset:    resetCrashRuns,
		executed: crashExecuted(map[string][][]byte{"farm": tasks}),
	})
	if appends != len(tasks) {
		t.Fatalf("history has %d appends, want one per task (%d)", appends, len(tasks))
	}
}

// crashLifeCells counts cell evaluations of the Game of Life kernel: a slab
// task's execution is its cells'.
var crashLifeCells atomic.Int64

var crashLife = stencil.NewFarmOp("diffcheck.crashlife", serial.I64C(), serial.I64s(),
	func(nb stencil.Neighborhood[int64]) int64 {
		crashLifeCells.Add(1)
		var n int64
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				n += nb.At(dy, dx)
			}
		}
		alive := nb.At(0, 0)
		if n-alive == 3 || (alive == 1 && n-alive == 2) {
			return 1
		}
		return 0
	})

// stencil.FarmOp Game of Life: three sweeps of four slabs, each sweep its own
// job@<sweep> in the store.
func TestCrashPointStencil(t *testing.T) {
	const h, w, sweeps, slabs = 16, 12, 3, 4
	g := stencilGrid(StencilCase{H: h, W: w, Seed: 21})
	for i, v := range g.Data {
		g.Data[i] = v & 1
	}
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	want := stencil.Stencil[int64]{Params: par, Fn: crashLife.Fn()}.Iterate(nil, g, sweeps).Data
	appends, _ := enumerateCrashPoints(t, crashClient{
		life: func(store checkpoint.Store) (any, error) {
			var out iter.Matrix2[int64]
			err := crashLifetime(cluster.Config{}, func(s *cluster.Session) (err error) {
				out, err = crashLife.Run(s, g, par, sweeps, stencil.FarmRunOptions{
					Slabs: slabs, Farm: cluster.FarmOptions{Checkpoint: store, Job: "life"},
				})
				return err
			})
			return out.Data, err
		},
		same: func(_, got any) error {
			for i, v := range got.([]int64) {
				if v != want[i] {
					return fmt.Errorf("cell %d = %d, sequential reference %d", i, v, want[i])
				}
			}
			return nil
		},
		reset: func() { crashLifeCells.Store(0) },
		executed: func(durable map[string]bool) error {
			// Every slab task without a durable record runs once; the rest
			// replay.
			wantCells := int64(sweeps*slabs-len(durable)) * (h / slabs) * w
			if got := crashLifeCells.Load(); got != wantCells {
				return fmt.Errorf("%d cells evaluated with %d slab records durable, want %d", got, len(durable), wantCells)
			}
			return nil
		},
	})
	if appends != sweeps*slabs {
		t.Fatalf("history has %d appends, want one per slab task (%d)", appends, sweeps*slabs)
	}
}

// A jobs.Service with two jobs, one holding a poison task, compacting its
// registry after every completion. A client whose Submit failed resubmits
// after the restart; a job the registry already holds answers ErrDuplicate.
func TestCrashPointService(t *testing.T) {
	specs := []jobs.Spec{
		{Name: "clean", Kernel: "diffcheck.crashfarm", Tasks: crashTasks('c', 5, -1), MaxTaskAttempts: crashAttempts},
		{Name: "toxic", Kernel: "diffcheck.crashfarm", Tasks: crashTasks('x', 6, 2), MaxTaskAttempts: crashAttempts},
	}
	byJob := map[string][][]byte{}
	records := len(specs) * 2 // a spec and a summary each
	for _, sp := range specs {
		byJob[sp.Name] = sp.Tasks
		records += len(sp.Tasks)
	}
	appends, compacts := enumerateCrashPoints(t, crashClient{
		life: func(store checkpoint.Store) (any, error) {
			svc, err := jobs.NewService(jobs.Config{Store: store, CompactEvery: 1})
			if err != nil {
				return nil, err
			}
			for _, sp := range specs {
				if err := svc.Submit(sp); err != nil && !errors.Is(err, jobs.ErrDuplicate) {
					return nil, err
				}
			}
			svc.Stop()
			err = crashLifetime(cluster.Config{}, func(s *cluster.Session) error { return svc.Serve(context.Background(), s) })
			states := map[string]string{}
			for _, st := range svc.Jobs() {
				states[st.Name] = st.State
			}
			return states, err
		},
		same: func(base, got any) error {
			if w, g := fmt.Sprint(base), fmt.Sprint(got); g != w || len(got.(map[string]string)) != len(specs) {
				return fmt.Errorf("job states %s, undisturbed %s", g, w)
			}
			return nil
		},
		reset:    resetCrashRuns,
		executed: crashExecuted(byJob),
	})
	if appends != records || compacts != len(specs) {
		t.Fatalf("history has %d appends and %d compactions, want %d and %d", appends, compacts, records, len(specs))
	}
}
