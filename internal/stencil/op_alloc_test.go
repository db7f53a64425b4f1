// The race detector instruments allocations, so the byte budget below only
// holds in normal builds; the chaos job's -race step runs the release tests.

//go:build !race

package stencil

import (
	"runtime"
	"slices"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/serial"
)

// allocOp is tableOp with a pool no other test fills.
var allocOp = NewOp("test.table.allocs", serial.I64C(), serial.I64s(), tableCell)

// spareBufs lists the front buffers of the slabs op's pool holds.
func spareBufs(p *slabPool[int64]) []*int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var bufs []*int64
	for _, s := range p.spare {
		bufs = append(bufs, &s.sw.buf[0])
	}
	return bufs
}

// TestOpRunAllocs: after a first Run, every further Run of one op and shape on
// 2 nodes sweeps in the slabs the run before gave back — the pool holds the
// same two double buffers after each — and allocates at most the result grid,
// the wire bytes (each scatter, gather and halo encoding) and 64 kB of slack
// (≈ 490 kB measured against a 521 kB budget). A slab's double buffer per rank
// would add 2 × 2 × 130 rows × 96 cells × 8 bytes ≈ 400 kB.
func TestOpRunAllocs(t *testing.T) {
	const h, w, iters, runs, slack = 256, 96, 20, 5, 64 << 10
	g := iter.Matrix2[int64]{H: h, W: w, Data: make([]int64, h*w)}
	for i := range g.Data {
		g.Data[i] = int64(i * i % 11)
	}
	par := Params[int64]{Radius: 1, Boundary: Wrap}
	want := tableRef(g, par, iters)
	op := allocOp
	_, err := cluster.Run(cluster.Config{Nodes: 2, CoresPerNode: 1}, func(s *cluster.Session) error {
		if _, err := op.Run(s, g, par, iters); err != nil { // fills the pool
			return err
		}
		bufs := spareBufs(&op.pool)
		if len(bufs) != 2 {
			t.Fatalf("after the first run the pool holds %d slabs, want 2", len(bufs))
		}
		var before, after runtime.MemStats
		wire := s.Fabric().Stats().Bytes
		runtime.ReadMemStats(&before)
		for range runs {
			got, err := op.Run(s, g, par, iters)
			if err != nil {
				return err
			}
			if !slices.Equal(got.Data, want) {
				t.Error("grid differs from the reference")
			}
		}
		runtime.ReadMemStats(&after)
		wire = (s.Fabric().Stats().Bytes - wire) / runs
		perRun := int64(after.TotalAlloc-before.TotalAlloc) / runs
		budget := 8*h*w + wire + slack
		t.Logf("%d bytes a run; budget %d (grid %d, wire %d, slack %d)", perRun, budget, 8*h*w, wire, slack)
		if perRun > budget {
			t.Errorf("a run allocates %d bytes, want ≤ %d", perRun, budget)
		}
		again := spareBufs(&op.pool)
		if len(again) != 2 || !slices.Contains(bufs, again[0]) || !slices.Contains(bufs, again[1]) {
			t.Errorf("the pool holds other slabs after %d runs: a run allocated its own", runs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
