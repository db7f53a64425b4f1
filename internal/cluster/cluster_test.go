package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// The tests register kernels per test via a reset registry; production code
// registers at init and never resets.

func TestConfigValidate(t *testing.T) {
	if _, err := Run(Config{Nodes: 0, CoresPerNode: 1}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Run(Config{Nodes: 1, CoresPerNode: 0}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if (Config{Nodes: 3, CoresPerNode: 4}).TotalCores() != 12 {
		t.Fatal("TotalCores wrong")
	}
}

func TestMasterOnlySession(t *testing.T) {
	workerKernels.reset()
	ran := false
	_, err := Run(Config{Nodes: 3, CoresPerNode: 2}, func(s *Session) error {
		ran = true
		if !s.Node().IsRoot() || s.Node().Nodes() != 3 || s.Node().Cores() != 2 {
			t.Errorf("session node wrong: rank=%d nodes=%d cores=%d",
				s.Node().Rank(), s.Node().Nodes(), s.Node().Cores())
		}
		if s.Config().Nodes != 3 {
			t.Errorf("config = %+v", s.Config())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("master never ran")
	}
}

func TestInvokeRunsKernelOnAllWorkers(t *testing.T) {
	workerKernels.reset()
	// Kernel: every node contributes rank+1; master reduces.
	RegisterWorker("test.sum", func(n *Node) error {
		_, _, err := mpi.ReduceT(n.Comm, serial.IntC(), n.Rank()+1, func(a, b int) int { return a + b })
		return err
	})
	var got int
	_, err := Run(Config{Nodes: 4, CoresPerNode: 1}, func(s *Session) error {
		if err := s.Invoke("test.sum"); err != nil {
			return err
		}
		v, ok, err := mpi.ReduceT(s.Node().Comm, serial.IntC(), 1, func(a, b int) int { return a + b })
		if err != nil || !ok {
			return err
		}
		got = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1+2+3+4 {
		t.Fatalf("reduce = %d", got)
	}
}

func TestInvokeUnknownKernel(t *testing.T) {
	workerKernels.reset()
	_, err := Run(Config{Nodes: 2, CoresPerNode: 1}, func(s *Session) error {
		return s.Invoke("no.such.kernel")
	})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestRepeatedInvocations(t *testing.T) {
	workerKernels.reset()
	RegisterWorker("test.echo", func(n *Node) error {
		v, err := mpi.BcastT(n.Comm, 0, serial.IntC(), 0)
		if err != nil {
			return err
		}
		_, _, err = mpi.ReduceT(n.Comm, serial.IntC(), v*n.Rank(), func(a, b int) int { return a + b })
		return err
	})
	_, err := Run(Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		for round := 1; round <= 5; round++ {
			if err := s.Invoke("test.echo"); err != nil {
				return err
			}
			if _, err := mpi.BcastT(s.Node().Comm, 0, serial.IntC(), round); err != nil {
				return err
			}
			v, _, err := mpi.ReduceT(s.Node().Comm, serial.IntC(), 0, func(a, b int) int { return a + b })
			if err != nil {
				return err
			}
			if v != round*(1+2) {
				t.Errorf("round %d: reduce = %d", round, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMasterErrorShutsDownWorkers(t *testing.T) {
	workerKernels.reset()
	sentinel := errors.New("master failed")
	_, err := Run(Config{Nodes: 4, CoresPerNode: 1}, func(s *Session) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestMasterPanicIsReported(t *testing.T) {
	workerKernels.reset()
	_, err := Run(Config{Nodes: 2, CoresPerNode: 1}, func(s *Session) error {
		panic("master exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "master exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerKernelErrorPropagates(t *testing.T) {
	workerKernels.reset()
	RegisterWorker("test.fail", func(n *Node) error {
		if n.Rank() == 1 {
			return errors.New("worker kernel failure")
		}
		// Other workers and master still complete their collective.
		_, _, err := mpi.ReduceT(n.Comm, serial.IntC(), 0, func(a, b int) int { return a + b })
		return err
	})
	_, err := Run(Config{Nodes: 3, CoresPerNode: 1}, func(s *Session) error {
		if err := s.Invoke("test.fail"); err != nil {
			return err
		}
		// Master participates in the kernel's reduce. Rank 1 died before
		// sending its contribution, so this blocks until the abort
		// machinery closes the fabric; the resulting error is joined with
		// rank 1's real failure.
		_, _, err := mpi.ReduceT(s.Node().Comm, serial.IntC(), 0, func(a, b int) int { return a + b })
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "worker kernel failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerPanicAbortsJob(t *testing.T) {
	workerKernels.reset()
	RegisterWorker("test.panic", func(n *Node) error {
		if n.Rank() == 2 {
			panic("worker kernel exploded")
		}
		// Peers block on a collective that rank 2 will never join; the
		// abort machinery must unblock them.
		_, _, err := mpi.ReduceT(n.Comm, serial.IntC(), 1, func(a, b int) int { return a + b })
		return err
	})
	_, err := Run(Config{Nodes: 4, CoresPerNode: 1}, func(s *Session) error {
		if err := s.Invoke("test.panic"); err != nil {
			return err
		}
		_, _, err := mpi.ReduceT(s.Node().Comm, serial.IntC(), 1, func(a, b int) int { return a + b })
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "worker kernel exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	workerKernels.reset()
	RegisterWorker("dup", func(*Node) error { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RegisterWorker("dup", func(*Node) error { return nil })
}

func TestNodePoolUsable(t *testing.T) {
	workerKernels.reset()
	RegisterWorker("test.pool", func(n *Node) error {
		// Each node sums [0,100) on its thread pool, then reduces to root.
		v := poolSum(n, 100)
		_, _, err := mpi.ReduceT(n.Comm, serial.IntC(), v, func(a, b int) int { return a + b })
		return err
	})
	_, err := Run(Config{Nodes: 2, CoresPerNode: 3}, func(s *Session) error {
		if s.Node().Pool.Workers() != 3 {
			t.Errorf("pool workers = %d", s.Node().Pool.Workers())
		}
		if err := s.Invoke("test.pool"); err != nil {
			return err
		}
		got, _, err := mpi.ReduceT(s.Node().Comm, serial.IntC(), poolSum(s.Node(), 100), func(a, b int) int { return a + b })
		if err != nil {
			return err
		}
		if got != 2*4950 {
			t.Errorf("pool reduce = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// poolSum sums [0,n) using the node's thread pool with per-worker partials.
func poolSum(n *Node, count int) int {
	partials := make([]int, n.Pool.Workers())
	n.Pool.ParallelFor(count, 10, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			partials[worker] += i
		}
	})
	total := 0
	for _, v := range partials {
		total += v
	}
	return total
}

func TestRunWithWireDelay(t *testing.T) {
	workerKernels.reset()
	RegisterWorker("test.delayed", func(n *Node) error {
		_, _, err := mpi.ReduceT(n.Comm, serial.IntC(), n.Rank(), func(a, b int) int { return a + b })
		return err
	})
	cfg := Config{
		Nodes:        3,
		CoresPerNode: 1,
		NetDelay:     &transport.DelayConfig{Latency: 2 * time.Millisecond},
	}
	start := time.Now()
	_, err := Run(cfg, func(s *Session) error {
		if err := s.Invoke("test.delayed"); err != nil {
			return err
		}
		v, _, err := mpi.ReduceT(s.Node().Comm, serial.IntC(), 0, func(a, b int) int { return a + b })
		if err != nil {
			return err
		}
		if v != 3 {
			t.Errorf("reduce = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// At least the invoke broadcast + reduce + shutdown each paid latency.
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("delayed run finished in %v, suspiciously fast", elapsed)
	}
}

func TestStatsReturned(t *testing.T) {
	workerKernels.reset()
	stats, err := Run(Config{Nodes: 2, CoresPerNode: 1}, func(s *Session) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// At minimum the shutdown broadcast crossed the fabric.
	if stats.Messages == 0 {
		t.Fatal("no messages recorded")
	}
}
