package cluster

import (
	"context"
	"testing"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Multi-rank failure tests: overlapping worker deaths and pause-then-resume
// ranks, at both the farm and the Mux layer. The failure mode these exist
// to catch is correlated loss handled as if it were sequential — a second
// death inside the first one's detection window, or a retired rank coming
// back from the dead mid-run.

// Two workers die within the same beat window (their crash thresholds are a
// few sends apart, far less than one heartbeat round). The farm must retire
// both, reassign both workers' tasks, and still deliver every result.
func TestFarmSurvivesTwoRanksDyingInSameBeatWindow(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("multirank.triple", func(n *Node, task []byte) ([]byte, error) {
		time.Sleep(time.Millisecond) // keep tasks in flight when the deaths land
		return []byte{task[0] * 3}, nil
	})

	cfg := &transport.FaultConfig{
		Seed: 9,
		Crashes: []transport.Crash{
			{Rank: 2, AfterSends: 4},
			{Rank: 3, AfterSends: 5},
		},
	}
	const tasks = 16
	var res *FarmResult
	_, err := runGuarded(t, Config{
		Nodes: 5, CoresPerNode: 1,
		Fault:    cfg,
		Reliable: fastRetry(),
	}, func(s *Session) error {
		in := make([][]byte, tasks)
		for i := range in {
			in[i] = []byte{byte(i)}
		}
		var err error
		res, err = s.Farm("multirank.triple", in)
		return err
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for i, out := range res.Results {
		if len(out) != 1 || out[0] != byte(i*3) {
			t.Fatalf("task %d result = %v, want [%d]", i, out, byte(i*3))
		}
	}
	lost := map[int]bool{}
	for _, r := range res.Lost {
		lost[r] = true
	}
	if !lost[2] || !lost[3] {
		t.Fatalf("Lost = %v, want both rank 2 and rank 3", res.Lost)
	}
}

// A rank pauses past the retirement window, then resumes. The master must
// retire it (exhausted acks — a paused inbox never acknowledges) and
// reassign its tasks; when the pause lifts, the parked frames deliver, the
// zombie worker executes and replies, and those late acks and late results
// must be ignored without a panic or a duplicate result.
//
// The pause window and the master's ack ladder both run on an injected
// fabric clock, which only advancePastAcks moves: one step past any ack
// deadline at a time, each taken once the master has retransmitted. The
// ladder's eleven steps thus fit inside the pause window in fabric time
// however long the master is descheduled between them.
func TestFarmPausedRankRetiredAndLateRepliesIgnored(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("multirank.slowinc", func(n *Node, task []byte) ([]byte, error) {
		time.Sleep(3 * time.Millisecond) // stretch the farm past the pause
		return []byte{task[0] + 1}, nil
	})

	cfg := &transport.FaultConfig{
		Seed: 12,
		// Rank 1's inbox freezes shortly after the dispatch handshake and
		// stays frozen for 80ms of fabric time — longer than the ack ladder
		// below takes to declare it lost, so the zombie's late replies land
		// after its retirement.
		Pauses: []transport.Pause{{Rank: 1, AfterDeliveries: 2, Duration: 80 * time.Millisecond}},
	}
	rel := &mpi.ReliableConfig{
		AckTimeout:    500 * time.Microsecond,
		Retries:       10,
		MaxAckTimeout: 5 * time.Millisecond,
	}
	clk := newFakeClock()
	tr := trace.New()
	const tasks = 60
	var res *FarmResult
	_, err := runGuarded(t, Config{
		Nodes: 4, CoresPerNode: 1,
		Fault:    cfg,
		Reliable: rel,
		Clock:    clk,
		Tracer:   tr,
	}, func(s *Session) error {
		in := make([][]byte, tasks)
		for i := range in {
			in[i] = []byte{byte(i)}
		}
		done := make(chan struct{})
		driven := make(chan struct{})
		go func() {
			defer close(driven)
			advancePastAcks(s, clk, tr, rel, done)
			clk.advance(cfg.Pauses[0].Duration) // lift the pause
		}()
		var err error
		res, err = s.Farm("multirank.slowinc", in)
		close(done)
		<-driven
		return err
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for i, out := range res.Results {
		if len(out) != 1 || out[0] != byte(i+1) {
			t.Fatalf("task %d result = %v, want [%d]", i, out, byte(i+1))
		}
	}
	lost := map[int]bool{}
	for _, r := range res.Lost {
		lost[r] = true
	}
	if !lost[1] {
		t.Fatalf("paused rank 1 not retired: Lost = %v", res.Lost)
	}
	// The parked task stayed queued when the assign send exhausted its acks
	// (a frozen inbox never acknowledges), so it ran on a surviving worker
	// — the complete, correct result set above is the reassignment proof.
	// In-flight reassignment after heartbeat silence is pinned separately
	// by TestFarmHeartbeatRetiresSilentWorker.
	if res.Failed != nil {
		t.Fatalf("quarantined tasks in a pause-only run: %+v", res.Failed)
	}
}

// advancePastAcks walks the master's ack ladder on the fabric clock: once the
// pause holds a frame, it moves the clock past the longest jittered ack
// timeout and wakes the master, then waits until the master has retransmitted
// or retired a worker, and repeats while no worker is retired. Each step is
// one retry of every frame the paused rank has not acknowledged, so the
// ladder ends after Retries+1 steps. It returns early once done is closed.
func advancePastAcks(s *Session, clk *fakeClock, tr *trace.Tracer, rel *mpi.ReliableConfig, done <-chan struct{}) {
	step := rel.MaxAckTimeout * 6 / 5 // the timeout's cap plus its 20 % jitter
	wait := func(ready func() bool) bool {
		for !ready() {
			select {
			case <-done:
				return false
			case <-time.After(50 * time.Microsecond):
			}
		}
		return true
	}
	if !wait(func() bool { return s.Fabric().Stats().Faults.Paused > 0 }) {
		return
	}
	for tr.Count("farm.retire") == 0 {
		before := s.node.Comm.ReliableStats().Retries
		clk.advance(step)
		s.Fabric().Endpoint(0).Wake()
		if !wait(func() bool {
			return s.node.Comm.ReliableStats().Retries > before || tr.Count("farm.retire") > 0
		}) {
			return
		}
	}
}

// A worker whose inbox freezes at the farm's dispatch acknowledges it later
// than the master's retry budget allows, but it still enters the task loop
// once the pause lifts. The dispatch must therefore not write it off: it is
// retired, if at all, by the farm's own loss detection, and it is sent the
// stop frame at the end, so the farm completes and the run returns instead of
// hanging with that worker parked in the task loop.
func TestFarmSlowDispatchAckDoesNotHangRun(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("multirank.inc", func(n *Node, task []byte) ([]byte, error) {
		return []byte{task[0] + 1}, nil
	})
	const tasks = 8
	var res *FarmResult
	_, err := runGuarded(t, Config{
		Nodes: 3, CoresPerNode: 1,
		Fault: &transport.FaultConfig{
			Pauses: []transport.Pause{{Rank: 1, AfterDeliveries: 0, Duration: 30 * time.Millisecond}},
		},
		// Given up on after ≈ 5 ms of silence: well inside the pause.
		Reliable: &mpi.ReliableConfig{AckTimeout: time.Millisecond, Retries: 2},
	}, func(s *Session) error {
		in := make([][]byte, tasks)
		for i := range in {
			in[i] = []byte{byte(i)}
		}
		var err error
		res, err = s.Farm("multirank.inc", in)
		return err
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for i, out := range res.Results {
		if len(out) != 1 || out[0] != byte(i+1) {
			t.Fatalf("task %d result = %v, want [%d]", i, out, byte(i+1))
		}
	}
}

// muxDrive drains one job map through a Mux: dispatch to idle workers,
// requeue lost workers' assignments, collect results. Returns the results
// by job and the set of retired workers.
func muxDrive(t *testing.T, s *Session, m *Mux, queues map[string][]MuxAssignment) (map[string]map[int][]byte, map[int]bool) {
	t.Helper()
	results := map[string]map[int][]byte{}
	lost := map[int]bool{}
	remaining := 0
	for job, q := range queues {
		results[job] = map[int][]byte{}
		remaining += len(q)
	}
	pop := func() (MuxAssignment, bool) {
		// Deterministic interleave: alternate jobs in name order.
		for _, job := range []string{"job-a", "job-b"} {
			if q := queues[job]; len(q) > 0 {
				a := q[0]
				queues[job] = q[1:]
				return a, true
			}
		}
		return MuxAssignment{}, false
	}
	deadline := time.Now().Add(20 * time.Second)
	for remaining > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("mux drive wedged with %d tasks remaining", remaining)
		}
		for _, w := range m.Idle() {
			a, ok := pop()
			if !ok {
				break
			}
			if err := m.Assign(context.Background(), w, a); err != nil {
				t.Fatalf("assign: %v", err)
			}
		}
		ev, ok, err := m.Poll()
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if !ok {
			if m.Workers() == 0 {
				if a, any := pop(); any {
					ev, ok = m.RunLocal(a), true
				}
			}
			if !ok {
				time.Sleep(100 * time.Microsecond)
				continue
			}
		}
		switch ev.Kind {
		case MuxWorkerLost:
			lost[ev.Worker] = true
			for _, a := range ev.Requeued {
				queues[a.Job] = append([]MuxAssignment{a}, queues[a.Job]...)
			}
		case MuxTaskDone:
			if !ev.OK {
				t.Fatalf("task %s/%d failed: %s", ev.Job, ev.Task, ev.Err)
			}
			if _, dup := results[ev.Job][ev.Task]; dup {
				continue // late duplicate from a retired worker
			}
			results[ev.Job][ev.Task] = ev.Result
			remaining--
		}
	}
	return results, lost
}

// The Mux interleaves tasks from two jobs onto one worker pool and routes
// every result back to its owning job.
func TestMuxInterleavesTwoJobsOnOnePool(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("mux.double", func(n *Node, task []byte) ([]byte, error) {
		return []byte{task[0] * 2}, nil
	})
	RegisterFarm("mux.negate", func(n *Node, task []byte) ([]byte, error) {
		return []byte{0xFF - task[0]}, nil
	})

	_, err := runGuarded(t, Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		m, err := s.OpenMux(MuxOptions{})
		if err != nil {
			return err
		}
		defer m.Close()
		queues := map[string][]MuxAssignment{"job-a": nil, "job-b": nil}
		for i := 0; i < 10; i++ {
			queues["job-a"] = append(queues["job-a"], MuxAssignment{
				Job: "job-a", Kernel: "mux.double", Task: i, Payload: []byte{byte(i)}})
			queues["job-b"] = append(queues["job-b"], MuxAssignment{
				Job: "job-b", Kernel: "mux.negate", Task: i, Payload: []byte{byte(i)}})
		}
		results, _ := muxDrive(t, s, m, queues)
		for i := 0; i < 10; i++ {
			if got := results["job-a"][i]; len(got) != 1 || got[0] != byte(i*2) {
				t.Errorf("job-a task %d = %v", i, got)
			}
			if got := results["job-b"][i]; len(got) != 1 || got[0] != 0xFF-byte(i) {
				t.Errorf("job-b task %d = %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
}

// A worker dying mid-Mux surfaces as MuxWorkerLost carrying its in-flight
// assignment, and the job still finishes on the survivors.
func TestMuxWorkerLostRequeuesInFlightAssignment(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("mux.slowsq", func(n *Node, task []byte) ([]byte, error) {
		time.Sleep(2 * time.Millisecond)
		return []byte{task[0] * task[0]}, nil
	})

	cfg := &transport.FaultConfig{
		Seed:    15,
		Crashes: []transport.Crash{{Rank: 2, AfterSends: 3}},
	}
	_, err := runGuarded(t, Config{
		Nodes: 3, CoresPerNode: 1,
		Fault:    cfg,
		Reliable: fastRetry(),
	}, func(s *Session) error {
		m, err := s.OpenMux(MuxOptions{})
		if err != nil {
			return err
		}
		defer m.Close()
		queues := map[string][]MuxAssignment{"job-a": nil}
		for i := 0; i < 8; i++ {
			queues["job-a"] = append(queues["job-a"], MuxAssignment{
				Job: "job-a", Kernel: "mux.slowsq", Task: i, Payload: []byte{byte(i)}})
		}
		results, lost := muxDrive(t, s, m, queues)
		if !lost[2] {
			t.Errorf("crashed rank 2 never reported lost: %v", lost)
		}
		for i := 0; i < 8; i++ {
			if got := results["job-a"][i]; len(got) != 1 || got[0] != byte(i*i) {
				t.Errorf("task %d = %v, want [%d]", i, got, byte(i*i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
}
