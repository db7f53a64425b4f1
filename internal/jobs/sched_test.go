package jobs

import (
	"errors"
	"testing"
	"time"

	"triolet/internal/cluster"
)

// Scheduler unit tests: schedule() is pure policy over the job table, so
// these run without a cluster. All calls are single-threaded here, standing
// in for the serve goroutine that normally holds s.mu.

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return s
}

func submitN(t *testing.T, s *Service, name string, tasks, weight int) {
	t.Helper()
	payloads := make([][]byte, tasks)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	if err := s.Submit(Spec{Name: name, Kernel: "k", Tasks: payloads, Weight: weight}); err != nil {
		t.Fatalf("submit %s: %v", name, err)
	}
}

func countByJob(plan []plannedDispatch) map[string]int {
	got := map[string]int{}
	for _, p := range plan {
		got[p.a.Job]++
	}
	return got
}

// Dispatch counts follow the weights exactly: with weights 1:2:4 and
// fourteen workers, two full WDRR rounds hand out 2, 4, and 8 tasks.
func TestWDRRDispatchesProportionallyToWeight(t *testing.T) {
	s := newTestService(t, Config{})
	submitN(t, s, "w1", 100, 1)
	submitN(t, s, "w2", 100, 2)
	submitN(t, s, "w4", 100, 4)

	idle := make([]int, 14)
	for i := range idle {
		idle[i] = i + 1
	}
	now := time.Unix(0, 0)
	got := countByJob(s.schedule(now, idle))
	if got["w1"] != 2 || got["w2"] != 4 || got["w4"] != 8 {
		t.Fatalf("dispatch counts = %v, want w1:2 w2:4 w4:8", got)
	}
}

// A huge job cannot starve a small one of equal weight: each gets half the
// workers regardless of queue length, and the small job's tasks all land.
func TestWDRRHugeJobCannotStarveSmallJob(t *testing.T) {
	s := newTestService(t, Config{})
	submitN(t, s, "huge", 1000, 1)
	submitN(t, s, "small", 3, 1)

	idle := []int{1, 2, 3, 4, 5, 6, 7, 8}
	got := countByJob(s.schedule(time.Unix(0, 0), idle))
	if got["small"] != 3 {
		t.Fatalf("small job got %d of its 3 tasks dispatched alongside the huge job: %v", got["small"], got)
	}
	if got["huge"] != 5 {
		t.Fatalf("huge job should soak the leftover workers: %v", got)
	}
}

// A one-worker trickle — the steady state of a busy pool, where workers
// free one at a time — must still share by weight: the ring resumes where
// the last dispatch left off instead of restarting at the first job, or
// the first job in admission order would soak every freed slot.
func TestWDRRTrickleSharesByWeight(t *testing.T) {
	s := newTestService(t, Config{})
	submitN(t, s, "first", 100, 1)
	submitN(t, s, "second", 100, 1)
	submitN(t, s, "third", 100, 2)

	now := time.Unix(0, 0)
	got := map[string]int{}
	for i := 0; i < 40; i++ {
		plan := s.schedule(now, []int{1})
		if len(plan) != 1 {
			t.Fatalf("offer %d dispatched %d tasks, want 1", i, len(plan))
		}
		got[plan[0].a.Job]++
	}
	if got["first"] != 10 || got["second"] != 10 || got["third"] != 20 {
		t.Fatalf("trickle dispatch counts = %v, want first:10 second:10 third:20", got)
	}
}

// Tasks in backoff are invisible to the scheduler until their fabric-clock
// release time, then dispatch normally.
func TestScheduleHonorsBackoffRelease(t *testing.T) {
	s := newTestService(t, Config{})
	submitN(t, s, "j", 2, 1)
	now := time.Unix(0, 0)
	// Both tasks fail their first attempt at now: each retry is held for
	// backoffBase plus at most 20% jitter.
	for _, p := range s.schedule(now, []int{1, 2}) {
		if err := s.handleEvent(cluster.MuxEvent{
			Kind: cluster.MuxTaskDone, Worker: p.worker, Job: "j", Task: p.a.Task, Err: "flaky",
		}, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.jobs["j"].ledger.Pending(); len(got) != 2 {
		t.Fatalf("failed attempts not requeued: pending = %v", got)
	}

	if plan := s.schedule(now, []int{1, 2}); len(plan) != 0 {
		t.Fatalf("dispatched %d tasks still in backoff", len(plan))
	}
	plan := s.schedule(now.Add(backoffBase*13/10), []int{1, 2})
	if len(plan) != 2 {
		t.Fatalf("released tasks not dispatched: %d", len(plan))
	}
}

// The deterministic walk: identical state yields the identical plan.
func TestScheduleIsDeterministic(t *testing.T) {
	build := func() *Service {
		s := newTestService(t, Config{})
		submitN(t, s, "a", 20, 2)
		submitN(t, s, "b", 20, 3)
		return s
	}
	now := time.Unix(0, 0)
	idle := []int{1, 2, 3, 4, 5}
	p1 := build().schedule(now, idle)
	p2 := build().schedule(now, idle)
	if len(p1) != len(p2) {
		t.Fatalf("plan lengths differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].a.Job != p2[i].a.Job || p1[i].a.Task != p2[i].a.Task || p1[i].worker != p2[i].worker {
			t.Fatalf("plan diverges at %d: %v vs %v", i,
				[3]any{p1[i].a.Job, p1[i].a.Task, p1[i].worker},
				[3]any{p2[i].a.Job, p2[i].a.Task, p2[i].worker})
		}
	}
}

// Rank health: failures accumulate to the drain threshold, successes decay
// the score, and a fully drained pool still yields one worker so the
// service degrades instead of deadlocking.
func TestHealthDrainAndRecovery(t *testing.T) {
	s := newTestService(t, Config{})
	for i := 0; i < drainScore; i++ {
		s.noteWorkerFailure(1)
	}
	if !s.drainingLocked(1) {
		t.Fatalf("rank 1 not draining after %d failures", drainScore)
	}
	if got := s.usableWorkers([]int{1, 2}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("usableWorkers = %v, want [2]", got)
	}
	// Success decays the score below the threshold: the rank earns back in.
	s.noteWorkerSuccess(1)
	if s.drainingLocked(1) {
		t.Fatalf("rank 1 still draining after success decay (score %v)", s.health[1])
	}
	// All drained: keep the least-unhealthy rank rather than none.
	s.health[1], s.health[2] = 5, 4
	if got := s.usableWorkers([]int{1, 2}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fully drained pool yielded %v, want the least-unhealthy [2]", got)
	}
}

// Retry backoff is exponential, capped, and strictly non-shrinking under
// jitter; the same seed replays the same delays.
func TestFailureBackoffLadder(t *testing.T) {
	s := newTestService(t, Config{Seed: 5})
	for attempt := 1; attempt <= 8; attempt++ {
		base := min(backoffBase<<(attempt-1), backoffMax)
		d := s.failureBackoff(attempt)
		if d < base || d >= base+time.Duration(float64(base)*0.2)+time.Nanosecond {
			t.Fatalf("attempt %d backoff %v outside [%v, %v+20%%]", attempt, d, base, base)
		}
	}
	s2 := newTestService(t, Config{Seed: 5})
	s3 := newTestService(t, Config{Seed: 5})
	for i := 0; i < 10; i++ {
		if a, b := s2.failureBackoff(2), s3.failureBackoff(2); a != b {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, a, b)
		}
	}
}

// Admission control: the high-water mark rejects with the typed error,
// duplicates and post-Stop submissions are refused, and terminal jobs free
// their slots.
func TestAdmissionControl(t *testing.T) {
	s := newTestService(t, Config{MaxQueued: 2})
	submitN(t, s, "a", 1, 1)
	submitN(t, s, "b", 1, 1)

	err := s.Submit(Spec{Name: "c", Kernel: "k", Tasks: [][]byte{{1}}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Depth != 2 || adm.Limit != 2 || adm.Job != "c" {
		t.Fatalf("AdmissionError = %+v", adm)
	}
	if err := s.Submit(Spec{Name: "a", Kernel: "k", Tasks: [][]byte{{1}}}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate submit error = %v, want ErrDuplicate", err)
	}

	// A completed job frees its admission slot.
	s.jobs["a"].state = Done
	if err := s.Submit(Spec{Name: "c", Kernel: "k", Tasks: [][]byte{{1}}}); err != nil {
		t.Fatalf("submit after completion freed a slot: %v", err)
	}

	s.Stop()
	if err := s.Submit(Spec{Name: "d", Kernel: "k", Tasks: [][]byte{{1}}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-Stop submit error = %v, want ErrStopped", err)
	}
}

// The registry spec and summary encodings round-trip.
func TestRegistryEncodingsRoundTrip(t *testing.T) {
	sp := Spec{
		Name: "j", Kernel: "kern", Weight: 3, MaxTaskAttempts: 5,
		RetryBudget: 9, TaskTimeout: 250 * time.Millisecond,
		Tasks: [][]byte{{1, 2, 3}, nil, {0xFF}},
	}
	got, err := decodeSpec("j", encodeSpec(sp))
	if err != nil {
		t.Fatalf("decodeSpec: %v", err)
	}
	if got.Kernel != sp.Kernel || got.Weight != 3 || got.MaxTaskAttempts != 5 ||
		got.RetryBudget != 9 || got.TaskTimeout != sp.TaskTimeout || len(got.Tasks) != 3 {
		t.Fatalf("spec round trip = %+v", got)
	}
	if string(got.Tasks[0]) != string(sp.Tasks[0]) || len(got.Tasks[1]) != 0 || got.Tasks[2][0] != 0xFF {
		t.Fatalf("task payloads mangled: %+v", got.Tasks)
	}

	sum := doneSummary{state: Degraded, completed: 7, failed: 2, retriesUsed: 4,
		taskSeconds: 3 * time.Second, resultCRC: 0xDEADBEEF}
	got2, err := decodeDone(encodeDone(sum))
	if err != nil {
		t.Fatalf("decodeDone: %v", err)
	}
	if got2 != sum {
		t.Fatalf("summary round trip = %+v, want %+v", got2, sum)
	}
	if _, err := decodeDone([]byte{registryVersion, 0}); err == nil {
		t.Fatal("truncated summary accepted")
	}
	if _, err := decodeSpec("j", []byte{42}); err == nil {
		t.Fatal("wrong-version spec accepted")
	}
}
