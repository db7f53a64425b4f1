package stencil_test

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/stencil"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// farmCells counts cell evaluations of farmCounted: a slab task's execution
// is its cells'.
var farmCells atomic.Int64

var farmCounted = stencil.NewFarmOp("test.life.counted", serial.I64C(), serial.I64s(),
	func(nb stencil.Neighborhood[int64]) int64 {
		farmCells.Add(1)
		return lifeKernel(nb.At)
	})

func init() {
	// Pinned to every rank after a run, this reports what each node's segment
	// store still holds.
	cluster.RegisterFarm("test.segments", func(n *cluster.Node, _ []byte) ([]byte, error) {
		return []byte{byte(len(n.Segs))}, nil
	})
}

// TestFarmOpRollbackOnWorkerLoss kills workers that hold resident slabs in
// the middle of an epoch: the run must roll back to the epoch's base
// generation, restart it inline on the survivors (the master, when there are
// none), re-execute at most one epoch per rollback, end bit-identical to the
// reference and leave no node holding a slab. Beats are off, so every rank's
// send count — and with it the crash point — is the same in every run.
func TestFarmOpRollbackOnWorkerLoss(t *testing.T) {
	const h, w, iters, nodes = 32, 8, 10, 4
	const epoch = h / nodes / 2 // 4 slabs of 8 rows, radius 1: K = 4
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	g := fillLife(h, w, 23)
	want := refIterate(g, par, lifeKernel, iters)
	for _, tc := range []struct {
		name    string
		crashes []transport.Crash
		lost    []int
	}{
		{"one-worker", []transport.Crash{{Rank: 2, AfterSends: 9}}, []int{2}},
		{"every-worker", []transport.Crash{{Rank: 1, AfterSends: 9}, {Rank: 2, AfterSends: 13}, {Rank: 3, AfterSends: 30}}, []int{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			farmCells.Store(0)
			tr := trace.New()
			cfg := cluster.Config{
				Nodes: nodes, CoresPerNode: 1, Tracer: tr, FarmHeartbeat: time.Hour,
				Fault:    &transport.FaultConfig{Seed: 5, Crashes: tc.crashes},
				Reliable: &mpi.ReliableConfig{AckTimeout: time.Millisecond, Retries: 100, MaxAckTimeout: 50 * time.Millisecond},
			}
			var got iter.Matrix2[int64]
			var probe *cluster.FarmResult
			done := make(chan error, 1)
			go func() {
				_, err := cluster.Run(cfg, func(s *cluster.Session) (err error) {
					if got, err = farmCounted.Run(s, g, par, iters, stencil.FarmRunOptions{}); err != nil {
						return err
					}
					pins := cluster.FarmOptions{Pin: []int{0, 1, 2, 3}}
					if probe, err = s.FarmOpts("test.segments", make([][]byte, nodes), pins); !errors.Is(err, cluster.ErrPinLost) {
						return fmt.Errorf("probe of the dead ranks' pins: %v", err)
					}
					return nil
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("run hung")
			}
			if !slices.Equal(got.Data, want) {
				t.Error("final grid differs from the sequential reference")
			}
			slices.Sort(probe.Lost)
			if !slices.Equal(probe.Lost, tc.lost) {
				t.Errorf("Lost = %v, want %v", probe.Lost, tc.lost)
			}
			for rank, held := range probe.Results {
				if !slices.Contains(tc.lost, rank) && (len(held) != 1 || held[0] != 0) {
					t.Errorf("rank %d still holds %v segments", rank, held)
				}
			}
			rollbacks := int64(tr.Count("stencil.rollback"))
			if rollbacks < 1 || rollbacks > int64(len(tc.lost)) {
				t.Errorf("%d rollbacks for %d lost workers", rollbacks, len(tc.lost))
			}
			// A lost worker's inline task is reassigned, not rolled back: one
			// more slab each.
			extra := farmCells.Load() - iters*h*w
			if extra <= 0 || extra > (rollbacks*epoch*h+int64(len(tc.lost))*h/nodes)*w {
				t.Errorf("%d cells re-evaluated over %d rollbacks of at most %d sweeps", extra, rollbacks, epoch)
			}
		})
	}
}

// TestFarmOpWireContract pins the farmed stencil's wire shape on a small Wrap
// grid. An epoch's first sweep places slab j on rank j·nodes/n, so the
// master's own slabs — half of them at 2 nodes, a quarter at 4 — never cross
// the wire. Under a checkpoint every epoch is one sweep, slab out and slab
// back, as every sweep was before slabs became resident: a checkpointed run
// must never rise above these constants. Without one the epochs are 4 sweeps
// (2 nodes: 8-row slabs) and 2 sweeps (4 nodes) long, and inside an epoch
// only the two ghost rows go out and the two edge rows come back per slab:
// the same messages and the same provisioned halo, fewer bytes. Beats are
// off: the wall clock paces them.
func TestFarmOpWireContract(t *testing.T) {
	type wireShape struct{ msgs, bytes, halo int64 }
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	g := fillI64(16, 8, 11)
	const iters = 5
	want := refIterate(g, par, sumKernel(1), iters)
	for _, tc := range []struct {
		nodes        int
		checkpointed bool
		wire         wireShape
	}{
		{2, true, wireShape{21, 6902, 1440}},
		{4, true, wireShape{63, 13026, 2880}},
		{2, false, wireShape{21, 4214, 1440}},
		{4, false, wireShape{63, 10722, 2880}},
	} {
		var fo cluster.FarmOptions
		if tc.checkpointed {
			fo.Checkpoint, fo.Job = checkpoint.NewMem(), "wire"
		}
		var got iter.Matrix2[int64]
		stats, err := cluster.Run(cluster.Config{Nodes: tc.nodes, CoresPerNode: 1, FarmHeartbeat: time.Hour},
			func(s *cluster.Session) (err error) {
				got, err = farmSum1.Run(s, g, par, iters, stencil.FarmRunOptions{Farm: fo})
				return err
			})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !slices.Equal(got.Data, want) {
			t.Errorf("%d nodes, checkpointed %v: grid differs from the reference", tc.nodes, tc.checkpointed)
		}
		if w := (wireShape{stats.Messages, stats.Bytes, stats.HaloBytes}); w != tc.wire {
			t.Errorf("%d nodes, checkpointed %v: wire %+v, want %+v", tc.nodes, tc.checkpointed, w, tc.wire)
		}
	}
}
