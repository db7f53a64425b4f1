package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Chaos tests: sessions running on a deliberately faulty fabric. Every test
// is deadline-guarded — the failure mode these exist to catch is a hang.

// chaosProfile is the standard lossy-fabric profile: a few percent of every
// fault kind, deterministic seed.
func chaosProfile(seed int64) *transport.FaultConfig {
	return &transport.FaultConfig{
		Seed: seed,
		Default: transport.FaultProbs{
			Drop:      0.05,
			Duplicate: 0.05,
			Corrupt:   0.05,
		},
	}
}

// fastRetry keeps the ack/retry ladder responsive while leaving a deep
// retry budget: under -race on a small machine a scheduling round can eat
// several timeouts, and a starved rank must not read as a lost rank.
func fastRetry() *mpi.ReliableConfig {
	return &mpi.ReliableConfig{
		AckTimeout:    500 * time.Microsecond,
		Retries:       100,
		MaxAckTimeout: 50 * time.Millisecond,
	}
}

// runGuarded executes Run with a deadline; a session that hangs fails the
// test instead of wedging the suite.
func runGuarded(t *testing.T, cfg Config, master func(*Session) error) (transport.Stats, error) {
	t.Helper()
	type outcome struct {
		stats transport.Stats
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		stats, err := Run(cfg, master)
		ch <- outcome{stats, err}
	}()
	select {
	case o := <-ch:
		return o.stats, o.err
	case <-time.After(30 * time.Second):
		t.Fatal("session deadlocked under fault injection")
		return transport.Stats{}, nil
	}
}

// sumKernel computes sum(rank+1) over all nodes with a collective reduce.
func registerSumKernel(name string) {
	RegisterWorker(name, func(n *Node) error {
		_, _, err := mpi.ReduceT(n.Comm, intC, n.Rank()+1, func(a, b int) int { return a + b })
		return err
	})
}

func invokeSum(s *Session, name string) (int, error) {
	if err := s.Invoke(name); err != nil {
		return 0, err
	}
	sum, _, err := mpi.ReduceT(s.Node().Comm, intC, s.Node().Rank()+1,
		func(a, b int) int { return a + b })
	return sum, err
}

func TestSessionIdenticalResultsUnderFaults(t *testing.T) {
	workerKernels.reset()
	registerSumKernel("chaos.sum")

	run := func(fault *transport.FaultConfig, rel *mpi.ReliableConfig) int {
		var sum int
		_, err := runGuarded(t, Config{
			Nodes: 4, CoresPerNode: 1,
			Fault:    fault,
			Reliable: rel,
		}, func(s *Session) error {
			var err error
			sum, err = invokeSum(s, "chaos.sum")
			return err
		})
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		return sum
	}

	clean := run(nil, nil)
	faulty := run(chaosProfile(2026), fastRetry())
	if clean != faulty || clean != 1+2+3+4 {
		t.Fatalf("results diverged: clean=%d faulty=%d", clean, faulty)
	}
}

// Teardown linger: the worker's last act is a send to the master, and the
// master's acknowledgement of it is the one frame the fabric drops. The
// master then finishes — dispatches shutdown, returns from its main — while
// the worker is still retransmitting. It must stay up long enough to re-ack
// (RunCtx's linger); a master that stops pumping on return leaves the
// worker retransmitting into silence until it reports "rank 0 lost".
//
// Only the master→worker link drops and ack timeouts dwarf scheduling
// noise, so the seed replays one drop pattern: exactly one frame dropped and
// exactly one retry, the worker's — made by the flush that ends its main,
// since the send itself returned long ago. If a protocol change moves the
// master's frame count the pattern check fails; re-pin the seed then.
func TestTeardownFaultDroppedFinalAck(t *testing.T) {
	testTeardownFault(t, "chaos.lastack", transport.Link{Src: 0, Dst: 1}, 7)
}

// The mirror image: the worker's last act is a buffered send, and that data
// frame is the one the fabric drops. The kernel has returned and nothing on
// the worker waits for the acknowledgement; it is the receive the worker
// idles in next — and, had its main returned, RunCtx's flush — that
// retransmits, so the master's reduce completes instead of hanging. One
// frame dropped on the worker→master link and one retry, the worker's, says
// the dropped frame was that one (a dropped ack would have made the master
// retransmit).
func TestTeardownFaultDroppedFinalData(t *testing.T) {
	testTeardownFault(t, "chaos.lastdata", transport.Link{Src: 1, Dst: 0}, 5)
}

func testTeardownFault(t *testing.T, kernel string, lossy transport.Link, seed int64) {
	workerKernels.reset()
	registerSumKernel(kernel)
	tr := trace.New()
	var sum int
	stats, err := runGuarded(t, Config{
		Nodes: 2, CoresPerNode: 1,
		Tracer: tr,
		Reliable: &mpi.ReliableConfig{
			AckTimeout:    20 * time.Millisecond,
			MaxAckTimeout: 20 * time.Millisecond,
			Retries:       5,
		},
		Fault: &transport.FaultConfig{
			Seed:  seed,
			Links: map[transport.Link]transport.FaultProbs{lossy: {Drop: 0.25}},
		},
	}, func(s *Session) error {
		var err error
		sum, err = invokeSum(s, kernel)
		return err
	})
	retries := [2]int{}
	for _, e := range tr.Events() {
		if e.Kind == trace.KindInstant && e.Phase == "net.retry" {
			retries[e.Rank]++
		}
	}
	if err != nil {
		t.Fatalf("session: %v (%d dropped, retries by rank %v)", err, stats.Faults.Dropped, retries)
	}
	if stats.Faults.Dropped != 1 || retries != [2]int{0, 1} {
		t.Fatalf("seed no longer drops exactly that frame: %d dropped, retries by rank %v", stats.Faults.Dropped, retries)
	}
	if sum != 1+2 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestCrashedWorkerFailsCollectiveGracefully(t *testing.T) {
	workerKernels.reset()
	registerSumKernel("chaos.crashsum")

	// Rank 3 dies on its very first send (the ack of the dispatch message),
	// so the collective can never complete. The session must come back with
	// a RankLostError-derived failure — not hang.
	cfg := chaosProfile(7)
	cfg.Default = transport.FaultProbs{} // crash only; isolate the failure mode
	cfg.Crashes = []transport.Crash{{Rank: 3, AfterSends: 0}}

	_, err := runGuarded(t, Config{
		Nodes: 4, CoresPerNode: 1,
		Fault:    cfg,
		Reliable: fastRetry(),
	}, func(s *Session) error {
		_, err := invokeSum(s, "chaos.crashsum")
		return err
	})
	if !errors.Is(err, mpi.ErrRankLost) {
		t.Fatalf("session err = %v, want ErrRankLost-derived", err)
	}
}

func TestFarmReassignsLostWorkerTasks(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	// Ranks 1 and 3 hold their first two tasks until rank 2 has died, so rank
	// 2 is fed the other eight. Each of its results is a send of its own, and
	// it dies at its sixth send: mid-farm by construction, however its acks
	// batch.
	var fabric atomic.Pointer[transport.Fabric]
	RegisterFarm("chaos.double", func(n *Node, task []byte) ([]byte, error) {
		for n.Rank() != 2 && !n.IsRoot() && !fabric.Load().Crashed(2) {
			time.Sleep(100 * time.Microsecond)
		}
		return []byte{task[0] * 2}, nil
	})

	// Rank 2 survives the dispatch handshake and a little work, then dies
	// mid-farm; its in-flight task must be reassigned and the job must
	// still produce every result.
	cfg := &transport.FaultConfig{
		Seed:    3,
		Crashes: []transport.Crash{{Rank: 2, AfterSends: 5}},
	}
	const tasks = 12
	var res *FarmResult
	_, err := runGuarded(t, Config{
		Nodes: 4, CoresPerNode: 1,
		Fault:    cfg,
		Reliable: fastRetry(),
	}, func(s *Session) error {
		fabric.Store(s.Fabric())
		in := make([][]byte, tasks)
		for i := range in {
			in[i] = []byte{byte(i)}
		}
		var err error
		res, err = s.Farm("chaos.double", in)
		return err
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for i, out := range res.Results {
		if len(out) != 1 || out[0] != byte(i*2) {
			t.Fatalf("task %d result = %v, want [%d]", i, out, i*2)
		}
	}
	if len(res.Lost) == 0 {
		t.Fatalf("lost worker not reported: %+v", res)
	}
	found := false
	for _, r := range res.Lost {
		if r == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Lost = %v, want to include rank 2", res.Lost)
	}
}

func TestFarmTypedUnderLossyFabric(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("chaos.scale", func(n *Node, task []byte) ([]byte, error) {
		v, err := serial.Unmarshal(intC, task)
		if err != nil {
			return nil, err
		}
		return serial.Marshal(intC, v*10), nil
	})

	in := []int{3, 1, 4, 1, 5, 9, 2, 6}
	tasks := make([][]byte, len(in))
	for i, v := range in {
		tasks[i] = serial.Marshal(intC, v)
	}
	var res *FarmResult
	_, err := runGuarded(t, Config{
		Nodes: 3, CoresPerNode: 1,
		Fault:    chaosProfile(11),
		Reliable: fastRetry(),
	}, func(s *Session) error {
		var err error
		res, err = s.Farm("chaos.scale", tasks)
		return err
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for i, v := range in {
		if out, err := serial.Unmarshal(intC, res.Results[i]); err != nil || out != v*10 {
			t.Fatalf("out[%d] = %d (%v), want %d (res=%+v)", i, out, err, v*10, res)
		}
	}
}

// A deterministically failing task must not kill the job: the supervisor
// retries it maxAttempts times and then quarantines it in Failed, while
// every other task still completes.
func TestFarmErrorQuarantinesPoisonTask(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("chaos.failing", func(n *Node, task []byte) ([]byte, error) {
		if task[0] == 2 {
			return nil, fmt.Errorf("task %d refused", task[0])
		}
		return task, nil
	})
	_, err := runGuarded(t, Config{
		Nodes: 3, CoresPerNode: 1,
		Reliable: fastRetry(),
	}, func(s *Session) error {
		fr, err := s.Farm("chaos.failing", [][]byte{{0}, {1}, {2}, {3}})
		if err != nil {
			return err
		}
		if len(fr.Failed) != 1 {
			return fmt.Errorf("Failed = %+v, want exactly the poison task", fr.Failed)
		}
		f := fr.Failed[0]
		if f.Task != 2 || f.Attempts != 3 || !strings.Contains(f.Err, "refused") {
			return fmt.Errorf("quarantine record = %+v", f)
		}
		if fr.Results[2] != nil {
			return fmt.Errorf("quarantined task has a result: %x", fr.Results[2])
		}
		for _, i := range []int{0, 1, 3} {
			if len(fr.Results[i]) != 1 || fr.Results[i][0] != byte(i) {
				return fmt.Errorf("task %d result = %x", i, fr.Results[i])
			}
		}
		if fr.Retried < 2 {
			return fmt.Errorf("Retried = %d, want >= 2 (poison task re-executions)", fr.Retried)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("farm with poison task: %v", err)
	}
}
