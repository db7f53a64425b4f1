// The race detector instruments allocations, so the byte budget below only
// holds in normal builds; CI's race job covers the same paths for correctness.

//go:build !race

package stencil

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/mpi"
)

// TestFarmOpFrameAllocs: every task frame and every answer is built in a
// buffer of exactly its size, and a life-farm-shaped solve — 128², 8 slabs,
// 40 sweeps on 2 reliable nodes — allocates at most 10.5 MB: one encode per
// hop, sections decoded where they land, slab buffers reused across epochs.
func TestFarmOpFrameAllocs(t *testing.T) {
	inline, handle, last := farmSeedFrames()
	drop, _ := tableFarm.frame(farmHeader{h: 12, w: 5, slabs: 3, run: 7, flags: farmDrop}, -5, nil, nil, 0)
	frames := map[string][]byte{"inline": inline, "handle": handle, "last": last, "drop": drop}
	for name, f := range frames {
		if cap(f) != len(f) {
			t.Errorf("%s frame: %d bytes in a buffer of %d", name, len(f), cap(f))
		}
	}
	_, err := cluster.Run(cluster.Config{Nodes: 1, CoresPerNode: 1}, func(s *cluster.Session) error {
		for _, name := range []string{"inline", "handle", "last"} {
			out, err := tableFarm.taskBody(s.Node(), frames[name])
			if err != nil || len(out) == 0 || cap(out) != len(out) {
				t.Errorf("%s answer: %d bytes in a buffer of %d (%v)", name, len(out), cap(out), err)
			}
		}
		if n := len(s.Node().Segs); n != 0 {
			t.Errorf("%d segments resident after the epoch's last sweep", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	g := iter.Matrix2[int64]{H: 128, W: 128, Data: make([]int64, 128*128)}
	for i := range g.Data {
		g.Data[i] = int64(i * i % 7 & 1)
	}
	par := Params[int64]{Radius: 1, Boundary: Wrap}
	const solves = 4
	cfg := cluster.Config{Nodes: 2, CoresPerNode: 1, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
	_, err = cluster.Run(cfg, func(s *cluster.Session) error {
		solve := func() error {
			got, err := tableFarm.Run(s, g, par, 40, FarmRunOptions{Slabs: 8})
			if err == nil && !slices.Equal(got.Data, tableRef(g, par, 40)) {
				t.Error("grid differs from the reference")
			}
			return err
		}
		if err := solve(); err != nil { // the first solve fills the slab pool
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range solves {
			if _, err := tableFarm.Run(s, g, par, 40, FarmRunOptions{Slabs: 8}); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / solves
		t.Logf("%.2f MB a solve", mb)
		if mb > 10.5 {
			t.Errorf("a life-farm-shaped solve allocates %.2f MB, want ≤ 10.5", mb)
		}
		return solve()
	})
	if err != nil {
		t.Fatal(err)
	}
}
