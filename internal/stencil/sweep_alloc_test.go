// The race detector instruments allocations, and under it the pool's counts
// depend on which worker steals, so these proofs run in normal builds only
// (make alloc-gate); CI's race job covers the same sweeps for correctness.

//go:build !race

package stencil

import (
	"testing"

	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// TestSweepAllocs is the allocation proof for the sweep: the window and the
// staging scratch live in the Slab, so a steady-state Slab.Sweep or step
// allocates nothing without a pool and a handful that does not scale with
// the grid with one (ParallelFor's region); a one-off Stencil.Sweep allocates its sweeper
// and, when the strategy stages, its scratch.
func TestSweepAllocs(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	f := transport.New(transport.Config{Ranks: 1})
	defer f.Close()
	comm := mpi.NewComm(f, 0)
	for _, b := range []Boundary{Normal, Wrap, Border} {
		withPool := map[int]float64{}
		for _, h := range []int{64, 256} {
			const w = 48
			g := iter.Matrix2[int64]{H: h, W: w, Data: make([]int64, h*w)}
			par := Params[int64]{Radius: 2, Boundary: b}
			sl, err := NewSlab(NewPartition(h, w, 1), 0, par, serial.I64s(), g.Data)
			if err != nil {
				t.Fatal(err)
			}
			step := func(p *sched.Pool) func() {
				return func() {
					if err := sl.step(comm, p, tableCell); err != nil {
						t.Fatal(err)
					}
				}
			}
			sl.Sweep(pool, tableCell) // first use sizes the staging scratch
			if n := testing.AllocsPerRun(20, func() { sl.Sweep(nil, tableCell) }); n != 0 {
				t.Errorf("%v %dx%d: Slab.Sweep without a pool allocates %v per sweep, want 0", b, h, w, n)
			}
			if n := testing.AllocsPerRun(20, step(nil)); n != 0 {
				t.Errorf("%v %dx%d: step without a pool allocates %v per sweep, want 0", b, h, w, n)
			}
			withPool[h] = testing.AllocsPerRun(20, step(pool))
			if n := testing.AllocsPerRun(20, func() { sl.Sweep(pool, tableCell) }); n > withPool[h] {
				t.Errorf("%v %dx%d: Slab.Sweep on a pool allocates %v, more than step's %v", b, h, w, n, withPool[h])
			}
			st := Stencil[int64]{Params: par, Fn: tableCell}
			dst := iter.Matrix2[int64]{H: h, W: w, Data: make([]int64, h*w)}
			if n := testing.AllocsPerRun(20, func() { st.Sweep(nil, dst, g) }); n > 2 {
				t.Errorf("%v %dx%d: Stencil.Sweep allocates %v, want ≤ 2", b, h, w, n)
			}
		}
		// O(1): ParallelFor's region and deques, whose depth grows with the
		// logarithm of the row count — not a buffer per sweep, leaf or row.
		if withPool[256] > 24 || withPool[256]-withPool[64] > 2 {
			t.Errorf("%v: step on a pool allocates %v at 64 rows, %v at 256: want ≤ 24 and within 2", b, withPool[64], withPool[256])
		}
	}
}
