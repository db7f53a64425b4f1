package cluster

import (
	"math"
	"testing"
	"time"
)

// TestLedgerObserveRefusesOutOfRangeTask: an outcome of this run that names
// a task the job does not have, past either end, is VerdictMalformed and
// changes nothing — the ledger checks the index itself rather than trusting
// each owner to. Another run's outcome stays a duplicate whatever its index.
func TestLedgerObserveRefusesOutOfRangeTask(t *testing.T) {
	tasks := autoTasks(3)
	l := NewLedger("job", "kernel", tasks, 3, math.MaxInt, nil)
	if _, ok := l.Next(1, time.Time{}); !ok {
		t.Fatal("no task to dispatch")
	}
	for _, task := range []int{len(tasks), -1} {
		for _, ok := range []bool{true, false} {
			ev := MuxEvent{Kind: MuxTaskDone, Worker: 1, Job: "job", Task: task, OK: ok, Err: "boom"}
			if v, rec := l.Observe(ev, time.Time{}); v != VerdictMalformed || rec.Job != "" {
				t.Fatalf("task %d (ok %v): verdict %d, record %+v; want VerdictMalformed and none", task, ok, v, rec)
			}
		}
	}
	if l.InFlight() != 1 || len(l.Pending()) != 2 || l.Retried != 0 || l.Settled() != 0 {
		t.Fatalf("ledger changed: %d in flight, pending %v, %d retried, %d settled", l.InFlight(), l.Pending(), l.Retried, l.Settled())
	}
	if v, _ := l.Observe(MuxEvent{Kind: MuxTaskDone, Worker: 1, Job: "other", Task: len(tasks)}, time.Time{}); v != VerdictDuplicate {
		t.Fatalf("another run's outcome: verdict %d, want VerdictDuplicate", v)
	}
}
