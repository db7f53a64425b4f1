package jobs

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
)

// countedRuns counts jobs.counted executions by the task's first byte.
var countedRuns [256]atomic.Int64

func init() {
	cluster.RegisterFarm("jobs.counted", func(n *cluster.Node, task []byte) ([]byte, error) {
		countedRuns[task[0]].Add(1)
		return echoTransform(task), nil
	})
}

// The registry is a trust boundary: a task record whose index the spec does
// not have, or a second record for a task that already has one, must not
// count toward the job. Either used to make a 2-task job with one stored
// result recover as fully settled — Serve then wrote its summary without
// ever running task 1 — and the out-of-range index made Result panic.
func TestRecoverIgnoresUnplaceableTaskRecords(t *testing.T) {
	stored := []byte("stored result of task 0")
	for _, tc := range []struct {
		name  string
		stray checkpoint.Record
	}{
		{"index out of range", checkpoint.Record{Task: 7, Kind: checkpoint.KindResult, Payload: []byte("stray")}},
		{"second record for a settled task", checkpoint.Record{Task: 0, Kind: checkpoint.KindFailed, Attempts: 3, Payload: []byte("stray")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := checkpoint.NewMem()
			tasks := [][]byte{{0xA0}, {0xA1}}
			countedRuns[0xA0].Store(0)
			countedRuns[0xA1].Store(0)
			if err := newTestService(t, Config{Store: store}).Submit(Spec{Name: "j", Kernel: "jobs.counted", Tasks: tasks}); err != nil {
				t.Fatal(err)
			}
			tc.stray.Job = "j"
			for _, rec := range []checkpoint.Record{{Job: "j", Task: 0, Kind: checkpoint.KindResult, Payload: stored}, tc.stray} {
				if err := store.Append(rec); err != nil {
					t.Fatal(err)
				}
			}

			s := newTestService(t, Config{Store: store})
			st, _ := s.Job("j")
			if st.Completed != 1 || st.Failed != 0 || st.Pending != 1 || st.State != "running" {
				t.Errorf("recovered as completed=%d failed=%d pending=%d state=%s, want 1/0/1 running",
					st.Completed, st.Failed, st.Pending, st.State)
			}
			serveUntilStopped(t, cluster.Config{Nodes: 2, CoresPerNode: 1}, s)
			if r0, r1 := countedRuns[0xA0].Load(), countedRuns[0xA1].Load(); r0 != 0 || r1 != 1 {
				t.Errorf("executions: task 0 ran %d times, task 1 %d; want 0 and 1", r0, r1)
			}
			results, quarantined, err := s.Result("j")
			if err != nil || len(quarantined) != 0 {
				t.Fatalf("result: %v, quarantined %v", err, quarantined)
			}
			if !bytes.Equal(results[0], stored) || !bytes.Equal(results[1], echoTransform(tasks[1])) {
				t.Fatalf("results = %q", results)
			}
		})
	}
}

// A spec record must validate like the spec admitted: one with weight 0 —
// what a weight of 2^32 used to read back as — would never be scheduled, and
// Stop would wait on it forever. NewService reports it as a registry error.
func TestRecoverRejectsInvalidSpecRecord(t *testing.T) {
	store := checkpoint.NewMem()
	sp := Spec{Name: "j", Kernel: "jobs.counted", Tasks: [][]byte{{0xA0}}, MaxTaskAttempts: 3, RetryBudget: 2}
	if err := store.Append(checkpoint.Record{Job: "j", Kind: checkpoint.KindJobSpec, Payload: encodeSpec(sp)}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(Config{Store: store}); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("NewService over a weight-0 spec record: %v, want a registry error", err)
	}
}

// A compacted job's summary record sizes no allocation: one claiming 2^20
// completed and 2^20 failed tasks recovers as a tombstone that reports those
// counts and holds no per-task entries. Rebuilding a 2^21-entry task list
// from it allocated 48 MB on recovery and as much again per Result, and
// reported the degraded job as 0 completed, 0 failed.
func TestRecoverTombstoneKeepsCountsNotTasks(t *testing.T) {
	const n = 1 << 20
	store := checkpoint.NewMem()
	if err := store.Append(checkpoint.Record{Job: "big", Kind: checkpoint.KindJobDone,
		Payload: encodeDone(doneSummary{state: Degraded, completed: n, failed: n})}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewService(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.Job("big")
	results, failed, rerr := s.Result("big")
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("recovering one summary record allocated %d bytes", alloc)
	}
	if !ok || st.State != "degraded" || st.Tasks != 2*n || st.Completed != n || st.Failed != n {
		t.Fatalf("tombstone status = %+v, ok=%v", st, ok)
	}
	if rerr != nil || len(results) != 0 || len(failed) != 0 {
		t.Fatalf("tombstone Result: %d results, %d failures, %v", len(results), len(failed), rerr)
	}
}
