package stencil_test

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// TestOpRunLeavesInputIntact runs Op.Run on one and three nodes and
// compares the grid bit for bit with a clone taken before: the root's slab
// is built from the caller's rows by reference, not from a decoded copy.
func TestOpRunLeavesInputIntact(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		g := fillF64(12, 7, uint64(nodes))
		before := slices.Clone(g.Data)
		par := stencil.Params[float64]{Radius: 1, Boundary: stencil.Wrap}
		if _, err := cluster.Run(cluster.Config{Nodes: nodes, CoresPerNode: 2}, func(s *cluster.Session) error {
			_, err := opHeat.Run(s, g, par, 4)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range g.Data {
			if math.Float64bits(v) != math.Float64bits(before[i]) {
				t.Fatalf("%d nodes: cell %d changed from %v to %v", nodes, i, before[i], v)
			}
		}
	}
}

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

// TestFarmOpPinnedPastWindow farms 24 slabs over 2 nodes, so every sweep pins
// 12 slab tasks to the worker: more than the reliable layer's window of 8
// unacknowledged frames per peer, and more than a pinned farm ships ahead. The
// rest must follow as the worker answers, on a lossless fabric and on one that
// drops, duplicates and corrupts 2% of frames, and the grid is the local
// sweep's to the bit.
func TestFarmOpPinnedPastWindow(t *testing.T) {
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	g := fillLife(48, 8, 36)
	const iters = 6
	want := refIterate(g, par, lifeKernel, iters)
	for _, lossy := range []bool{false, true} {
		cfg := cluster.Config{Nodes: 2, CoresPerNode: 1, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
		if lossy {
			cfg.Fault = &transport.FaultConfig{Seed: 36, Default: transport.FaultProbs{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02}}
			cfg.Reliable = &mpi.ReliableConfig{AckTimeout: 500 * time.Microsecond, Retries: 100, MaxAckTimeout: 50 * time.Millisecond}
		}
		var got iter.Matrix2[int64]
		done := make(chan error, 1)
		go func() {
			_, err := cluster.Run(cfg, func(s *cluster.Session) (err error) {
				got, err = farmLife.Run(s, g, par, iters, stencil.FarmRunOptions{Slabs: 24})
				return err
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("lossy=%v: %v", lossy, err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("lossy=%v: run hung", lossy)
		}
		if !slices.Equal(got.Data, want) {
			t.Errorf("lossy=%v: grid differs from the local sweep", lossy)
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
// scatter, bcast, kernel and gather. The heat row pins a float grid's wire
// shape exactly: 48×40 under Mirror, 6 sweeps on 4 nodes × 2 cores.
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
	g := fillI64(16, 8, 11)
	sum := func(s *cluster.Session) error {
		_, err := opSum1.Run(s, g, par, iters)
		return err
	}
	heat := fillF64(48, 40, 211)
	heatPar := stencil.Params[float64]{Radius: 1, Boundary: stencil.Mirror}
	for _, row := range []struct {
		name         string
		nodes, cores int
		run          func(*cluster.Session) error
		wire         wireShape
	}{
		{"sum", 1, 1, sum, wireShape{0, 0, 0}},
		{"sum", 2, 1, sum, wireShape{9, 1669, 544}},
		{"sum", 4, 1, sum, wireShape{31, 2991, 1152}},
		{"heat", 4, 2, func(s *cluster.Session) error {
			_, err := opHeat.Run(s, heat, heatPar, 6)
			return err
		}, wireShape{51, 35145, 11808}},
	} {
		tr := trace.New()
		stats, err := cluster.Run(cluster.Config{Nodes: row.nodes, CoresPerNode: row.cores, Tracer: tr}, row.run)
		if err != nil {
			t.Fatalf("%s on %d nodes: %v", row.name, row.nodes, err)
		}
		if got := (wireShape{stats.Messages, stats.Bytes, stats.HaloBytes}); got != row.wire {
			t.Errorf("%s on %d nodes: wire %+v, want %+v", row.name, row.nodes, got, row.wire)
		}
		seen := map[int]map[string]bool{}
		for _, sp := range tr.Spans() {
			if seen[sp.Rank] == nil {
				seen[sp.Rank] = map[string]bool{}
			}
			seen[sp.Rank][sp.Phase] = true
		}
		for r := range row.nodes {
			for _, phase := range []string{"scatter", "bcast", "kernel", "gather"} {
				if !seen[r][phase] {
					t.Errorf("%s on %d nodes: rank %d has no %q span", row.name, row.nodes, r, phase)
				}
			}
		}
	}
}
