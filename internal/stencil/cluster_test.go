package stencil_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// Registered once per test binary: the kernel closure fixes the radius, so
// sum kernels exist per radius; shape and boundary strategy travel in the
// header / task payloads.
var (
	opSum1   = stencil.NewOp("test.sum.r1", serial.I64C(), serial.I64s(), asFunc(sumKernel(1)))
	opSum3   = stencil.NewOp("test.sum.r3", serial.I64C(), serial.I64s(), asFunc(sumKernel(3)))
	opHeat   = stencil.NewOp("test.heat", serial.F64C(), serial.F64s(), asFunc(heatKernel))
	farmSum1 = stencil.NewFarmOp("test.sum.r1", serial.I64C(), serial.I64s(), asFunc(sumKernel(1)))
	farmLife = stencil.NewFarmOp("test.life", serial.I64C(), serial.I64s(), asFunc(lifeKernel))
)

// TestOpMatchesLocal runs the collective stencil skeleton on virtual
// clusters of 1–8 nodes over every boundary strategy and degenerate
// geometry, comparing bit-for-bit with the local reference, and checks halo
// traffic is attributed exactly when an exchange can occur.
func TestOpMatchesLocal(t *testing.T) {
	shapes := []struct{ h, w int }{{9, 5}, {1, 6}, {6, 1}}
	for _, nodes := range []int{1, 2, 4, 8} {
		for _, sh := range shapes {
			for _, radius := range []int{1, 3} {
				op, kern := opSum1, sumKernel(1)
				if radius == 3 {
					op, kern = opSum3, sumKernel(3)
				}
				for _, b := range allBoundaries {
					name := fmt.Sprintf("n%d/%dx%d/r%d/%v", nodes, sh.h, sh.w, radius, b)
					t.Run(name, func(t *testing.T) {
						par := stencil.Params[int64]{Radius: radius, Boundary: b, Border: 3}
						g := fillI64(sh.h, sh.w, uint64(nodes*1000+sh.h*10+sh.w+radius))
						const iters = 3
						want := refIterate(g, par, kern, iters)
						var got iter.Matrix2[int64]
						stats, err := cluster.Run(cluster.Config{Nodes: nodes, CoresPerNode: 2},
							func(s *cluster.Session) error {
								var err error
								got, err = op.Run(s, g, par, iters)
								return err
							})
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if got.Data[i] != want[i] {
								t.Fatalf("cell %d: got %d want %d", i, got.Data[i], want[i])
							}
						}
						if nodes >= 2 && sh.h >= 2 && stats.HaloBytes == 0 {
							t.Fatal("multi-node run attributed no halo bytes")
						}
						if nodes == 1 && stats.HaloBytes != 0 {
							t.Fatalf("single-node run attributed %d halo bytes", stats.HaloBytes)
						}
					})
				}
			}
		}
	}
}

// TestOpHeatBitIdentical pins the distributed float contract: the gathered
// grid equals the sequential reference bitwise, on lossless and lossy
// fabrics alike.
func TestOpHeatBitIdentical(t *testing.T) {
	par := stencil.Params[float64]{Radius: 1, Boundary: stencil.Mirror}
	g := fillF64(25, 11, 4)
	const iters = 5
	want := refIterate(g, par, heatKernel, iters)
	for _, lossy := range []bool{false, true} {
		cfg := cluster.Config{Nodes: 4, CoresPerNode: 2}
		if lossy {
			cfg.Fault = &transport.FaultConfig{
				Seed:    997,
				Default: transport.FaultProbs{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02},
			}
			cfg.Reliable = &mpi.ReliableConfig{
				AckTimeout:    500 * time.Microsecond,
				Retries:       100,
				MaxAckTimeout: 50 * time.Millisecond,
			}
		}
		var got iter.Matrix2[float64]
		if _, err := cluster.Run(cfg, func(s *cluster.Session) error {
			var err error
			got, err = opHeat.Run(s, g, par, iters)
			return err
		}); err != nil {
			t.Fatalf("lossy=%v: %v", lossy, err)
		}
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("lossy=%v cell %d: got %x want %x", lossy, i, got.Data[i], want[i])
			}
		}
	}
}

// TestFarmOpMatchesLocal runs the farm-backed skeleton across node counts
// and slab counts (including more slabs than rows) and checks bit-identity
// with the reference plus provisioned-halo attribution.
func TestFarmOpMatchesLocal(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		for _, slabs := range []int{0, 7, 32} {
			for _, b := range []stencil.Boundary{stencil.Wrap, stencil.Normal} {
				name := fmt.Sprintf("n%d/slabs%d/%v", nodes, slabs, b)
				t.Run(name, func(t *testing.T) {
					par := stencil.Params[int64]{Radius: 1, Boundary: b}
					g := fillI64(10, 6, uint64(nodes+slabs))
					const iters = 3
					want := refIterate(g, par, sumKernel(1), iters)
					var got iter.Matrix2[int64]
					stats, err := cluster.Run(cluster.Config{Nodes: nodes, CoresPerNode: 2},
						func(s *cluster.Session) error {
							var err error
							got, err = farmSum1.Run(s, g, par, iters, stencil.FarmRunOptions{Slabs: slabs})
							return err
						})
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got.Data[i] != want[i] {
							t.Fatalf("cell %d: got %d want %d", i, got.Data[i], want[i])
						}
					}
					if stats.HaloBytes == 0 {
						t.Fatal("farm run attributed no provisioned halo bytes")
					}
				})
			}
		}
	}
}

// TestFarmOpChaosResume is the acceptance scenario: iterated Game of Life
// farmed over a lossy fabric (2% drop/duplicate/corrupt per link), the
// master killed mid-run once the WAL holds a few slab records, then a fresh
// session resuming from the reopened WAL. The final grid must be
// bit-identical to the local reference — finished sweeps replay from their
// per-sweep WAL jobs, the interrupted sweep re-runs only unfinished slabs.
func TestFarmOpChaosResume(t *testing.T) {
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	g := fillLife(24, 16, 41)
	const iters = 4
	want := refIterate(g, par, lifeKernel, iters)

	dir := t.TempDir()
	walPath := filepath.Join(dir, "life.wal")
	wal, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Nodes:        4,
		CoresPerNode: 2,
		Fault: &transport.FaultConfig{
			Seed:    997,
			Default: transport.FaultProbs{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02},
		},
		Reliable: &mpi.ReliableConfig{
			AckTimeout:    500 * time.Microsecond,
			Retries:       100,
			MaxAckTimeout: 50 * time.Millisecond,
		},
	}
	opt := stencil.FarmRunOptions{Farm: cluster.FarmOptions{Job: "life"}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopKiller := make(chan struct{})
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for {
			select {
			case <-stopKiller:
				return
			default:
			}
			if wal.Records() >= 3 {
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var got iter.Matrix2[int64]
	firstOpt := opt
	firstOpt.Farm.Checkpoint = wal
	_, firstErr := cluster.RunCtx(ctx, cfg, func(s *cluster.Session) error {
		var err error
		got, err = farmLife.Run(s, g, par, iters, firstOpt)
		return err
	})
	close(stopKiller)
	<-killerDone
	if cerr := wal.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if firstErr != nil {
		if !errors.Is(firstErr, context.Canceled) {
			t.Fatalf("first life died of the wrong cause: %v", firstErr)
		}
		// Second life: a brand-new session resumes from the WAL on disk.
		wal2, err := checkpoint.OpenWAL(walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer wal2.Close()
		if rec := wal2.Records(); rec == 0 {
			t.Fatal("reopened WAL holds no records to resume from")
		}
		secondOpt := opt
		secondOpt.Farm.Checkpoint = wal2
		if _, err := cluster.Run(cfg, func(s *cluster.Session) error {
			var err error
			got, err = farmLife.Run(s, g, par, iters, secondOpt)
			return err
		}); err != nil {
			t.Fatalf("second life: %v", err)
		}
	} else {
		t.Log("job outran the killer; validating the completed first run")
	}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("cell %d: got %d want %d", i, got.Data[i], want[i])
		}
	}
	_ = os.Remove(walPath)
}

// TestOpSkeletonContract holds stencil.Op to the rows of core's skeleton
// contract that apply to it (a stencil.Func cannot fail, so the kernel-error
// rows do not): an empty grid and more nodes than rows give the local
// answer, the wire shape at 1, 2 and 4 nodes is the constant recorded when
// Op still hand-rolled its collectives, and every rank brackets its
// scatter, bcast, kernel and gather.
func TestOpSkeletonContract(t *testing.T) {
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	const iters = 2
	for _, shape := range []struct{ h, w, nodes int }{{0, 5, 1}, {0, 5, 4}, {3, 5, 8}} {
		g := fillI64(shape.h, shape.w, 7)
		want := refIterate(g, par, sumKernel(1), iters)
		var got iter.Matrix2[int64]
		if _, err := cluster.Run(cluster.Config{Nodes: shape.nodes, CoresPerNode: 1},
			func(s *cluster.Session) error {
				var err error
				got, err = opSum1.Run(s, g, par, iters)
				return err
			}); err != nil {
			t.Fatalf("%+v: %v", shape, err)
		}
		if got.H != shape.h || got.W != shape.w || !slices.Equal(got.Data, want) {
			t.Errorf("%+v: got %dx%d %v, want %v", shape, got.H, got.W, got.Data, want)
		}
	}

	type wireShape struct{ msgs, bytes, halo int64 }
	wire := map[int]wireShape{1: {0, 0, 0}, 2: {9, 1669, 544}, 4: {31, 2991, 1152}}
	g := fillI64(16, 8, 11)
	for _, nodes := range []int{1, 2, 4} {
		tr := trace.New()
		stats, err := cluster.Run(cluster.Config{Nodes: nodes, CoresPerNode: 1, Tracer: tr},
			func(s *cluster.Session) error {
				_, err := opSum1.Run(s, g, par, iters)
				return err
			})
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if got := (wireShape{stats.Messages, stats.Bytes, stats.HaloBytes}); got != wire[nodes] {
			t.Errorf("%d nodes: wire %+v, want %+v", nodes, got, wire[nodes])
		}
		seen := map[int]map[string]bool{}
		for _, sp := range tr.Spans() {
			if seen[sp.Rank] == nil {
				seen[sp.Rank] = map[string]bool{}
			}
			seen[sp.Rank][sp.Phase] = true
		}
		for r := range nodes {
			for _, phase := range []string{"scatter", "bcast", "kernel", "gather"} {
				if !seen[r][phase] {
					t.Errorf("%d nodes: rank %d has no %q span", nodes, r, phase)
				}
			}
		}
	}
}
