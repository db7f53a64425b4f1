package stencil

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// cancelAt is the sweep of cell (0, 0) at which cancelCell cancels the run
// through cancelRun; cancelSweeps counts those sweeps.
const cancelAt = 3

var (
	cancelRun    context.CancelFunc
	cancelSweeps atomic.Int32
	cancelOp     = NewOp("test.table.cancel", serial.I64C(), serial.I64s(), func(nb Neighborhood[int64]) int64 {
		if nb.Y() == 0 && nb.X() == 0 && cancelSweeps.Add(1) == cancelAt {
			cancelRun()
		}
		return tableCell(nb)
	})
	lossOp   = NewOp("test.table.loss", serial.I64C(), serial.I64s(), tableCell)
	sharedOp = NewOp("test.table.shared", serial.I64C(), serial.I64s(), tableCell)
)

// pooled reports the slabs op's pool holds.
func pooled(op *Op[int64]) []*Slab[int64] {
	op.pool.mu.Lock()
	defer op.pool.mu.Unlock()
	return slices.Clone(op.pool.spare)
}

func releaseGrid(h, w, seed int) iter.Matrix2[int64] {
	g := iter.Matrix2[int64]{H: h, W: w, Data: make([]int64, h*w)}
	for i := range g.Data {
		g.Data[i] = int64((i*i + seed) % 13)
	}
	return g
}

// TestOpReleaseNothingOnFailure: a Run that fails mid-sweep — its worker lost,
// or its context cancelled by the master's own kernel — hands no slab back to
// the op's pool, on either rank: a straggler may still hold what a failed run
// took out.
func TestOpReleaseNothingOnFailure(t *testing.T) {
	par := Params[int64]{Radius: 1, Boundary: Wrap}
	g := releaseGrid(32, 12, 1)
	run := func(ctx context.Context, cfg cluster.Config, op *Op[int64]) error {
		done := make(chan error, 1)
		go func() {
			_, err := cluster.RunCtx(ctx, cfg, func(s *cluster.Session) error {
				_, err := op.Run(s, g, par, 12)
				return err
			})
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(60 * time.Second):
			t.Fatal("run hung")
			return nil
		}
	}
	t.Run("worker-lost", func(t *testing.T) {
		cfg := cluster.Config{Nodes: 2, CoresPerNode: 1, FarmHeartbeat: time.Hour,
			Fault:    &transport.FaultConfig{Seed: 3, Crashes: []transport.Crash{{Rank: 1, AfterSends: 8}}},
			Reliable: &mpi.ReliableConfig{AckTimeout: time.Millisecond, Retries: 8, MaxAckTimeout: 10 * time.Millisecond}}
		err := run(context.Background(), cfg, lossOp)
		if err == nil {
			t.Fatal("run with its worker lost succeeded")
		}
		if n := len(pooled(lossOp)); n != 0 {
			t.Errorf("failed run (%v) left %d slabs in the pool", err, n)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelRun = cancel
		cancelSweeps.Store(0)
		err := run(ctx, cluster.Config{Nodes: 2, CoresPerNode: 1}, cancelOp)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: %v", err)
		}
		if n := len(pooled(cancelOp)); n != 0 {
			t.Errorf("cancelled run (%v) left %d slabs in the pool", err, n)
		}
	})
}

// TestOpReleaseConcurrentSessions: two sessions, each on its own goroutine, run
// one Op five times each over grids of one shape, so each run's slabs come from
// the pool the other session's runs give back to. Every grid is the reference's
// to the bit, and the pool ends holding distinct slabs: no slab went back
// twice, so none was handed to two ranks at once.
func TestOpReleaseConcurrentSessions(t *testing.T) {
	par := Params[int64]{Radius: 1, Boundary: Wrap}
	var wg sync.WaitGroup
	for seed := range 2 {
		g := releaseGrid(40, 10, seed)
		want := tableRef(g, par, 6)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cluster.Run(cluster.Config{Nodes: 2, CoresPerNode: 1}, func(s *cluster.Session) error {
				for run := range 5 {
					got, err := sharedOp.Run(s, g, par, 6)
					if err != nil {
						return err
					}
					if !slices.Equal(got.Data, want) {
						t.Errorf("session %d, run %d: grid differs from the reference", seed, run)
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("session %d: %v", seed, err)
			}
		}()
	}
	wg.Wait()
	held := pooled(sharedOp)
	for i, s := range held {
		for _, o := range held[:i] {
			if s == o || &s.back[0] == &o.back[0] || &s.sw.buf[0] == &o.sw.buf[0] {
				t.Fatalf("the pool holds one slab's buffers twice")
			}
		}
	}
}
