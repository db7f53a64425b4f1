package cutcp

import (
	"fmt"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/parboil"
)

func TestSlabMatchesSeq(t *testing.T) {
	in := smallInput(150, 41)
	want := Seq(in)
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 2},
		{Nodes: 3, CoresPerNode: 2},
		{Nodes: 5, CoresPerNode: 1},
	} {
		var got []float32
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			g, err := TrioletSlab(s, in)
			got = g
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkGrids(t, fmt.Sprintf("%+v", cfg), got, want, in)
	}
}

// The extension's reason to exist: the replicated-grid implementation
// ships one full grid per non-root node up the reduction tree, while the
// slab version ships each slab exactly once — total grid traffic drops
// from ~(nodes−1)×grid to ~grid.
func TestSlabReducesTraffic(t *testing.T) {
	in := smallInput(200, 47)
	cfg := cluster.Config{Nodes: 8, CoresPerNode: 1}

	replicated, err := cluster.Run(cfg, func(s *cluster.Session) error {
		_, err := Triolet(s, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slab, err := cluster.Run(cfg, func(s *cluster.Session) error {
		_, err := TrioletSlab(s, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Grid bytes dominate at this scale; expect at least a 2x reduction
	// (asymptotically ~(nodes-1)x, less here because atom routing
	// duplicates boundary atoms).
	if slab.Bytes*2 > replicated.Bytes {
		t.Fatalf("slab moved %d bytes vs replicated %d: no traffic win", slab.Bytes, replicated.Bytes)
	}
}

// accumulateSlab is Accumulate clipped and rebased to a slab.
func accumulateSlab(g Geometry, a Atom, zLo, zHi int, grid []float32) {
	zr, yr, xr := AtomBox(g, a)
	zr = zr.Intersect(domain.Range{Lo: zLo, Hi: zHi})
	for z := zr.Lo; z < zr.Hi; z++ {
		for y := yr.Lo; y < yr.Hi; y++ {
			base := ((z-zLo)*g.Dim.H + y) * g.Dim.W
			for x := xr.Lo; x < xr.Hi; x++ {
				if v, ok := Contribution(g, a, domain.Ix3{Z: z, Y: y, X: x}); ok {
					grid[base+x] += v
				}
			}
		}
	}
}

func TestAtomSlabBinsCoverWholeGrid(t *testing.T) {
	// Summing per-slab pipelines over all slabs must equal the whole-grid
	// pipeline for a single atom.
	in := smallInput(1, 53)
	g := in.Geo
	a := in.Atoms[0]
	whole := make([]float32, g.Points())
	Accumulate(g, a, whole)

	stitched := make([]float32, 0, g.Points())
	for _, slab := range []struct{ lo, hi int }{{0, 3}, {3, 7}, {7, g.Dim.D}} {
		part := make([]float32, (slab.hi-slab.lo)*g.Dim.H*g.Dim.W)
		accumulateSlab(g, a, slab.lo, slab.hi, part)
		stitched = append(stitched, part...)
	}
	if d := parboil.MaxAbsDiff(stitched, whole); d != 0 {
		t.Fatalf("stitched slabs differ by %v", d)
	}
}

// TestSlabHaloAttribution: the duplicate atom copies the router sends to
// both neighbours are accounted as halo bytes — exactly (copies-1) × wire
// size per atom, and zero on a single node (nothing is duplicated). Each
// run's messages and bytes are pinned exactly too, so a codec or
// collective that grows by one byte shows here.
func TestSlabHaloAttribution(t *testing.T) {
	small, large := smallInput(200, 47), smallInput(160, 131)
	for _, row := range []struct {
		in           *Input
		nodes, cores int
		msgs, bytes  int64
	}{
		{small, 1, 1, 0, 0},
		{small, 4, 1, 15, 10825},
		{small, 8, 1, 35, 18613},
		{large, 4, 2, 15, 9241},
	} {
		in, nodes := row.in, row.nodes
		cfg := cluster.Config{Nodes: nodes, CoresPerNode: row.cores}
		stats, err := cluster.Run(cfg, func(s *cluster.Session) error {
			_, err := TrioletSlab(s, in)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages != row.msgs || stats.Bytes != row.bytes {
			t.Errorf("nodes=%d cores=%d: wire %d messages / %d bytes, want %d/%d",
				nodes, row.cores, stats.Messages, stats.Bytes, row.msgs, row.bytes)
		}
		slabs := domain.BlockPartition(in.Geo.Dim.D, nodes)
		var want int64
		for _, a := range in.Atoms {
			zr, _, _ := AtomBox(in.Geo, a)
			hits := 0
			for _, slab := range slabs {
				if !slab.Intersect(zr).Empty() {
					hits++
				}
			}
			if hits > 1 {
				want += int64(hits-1) * atomWireBytes
			}
		}
		if stats.HaloBytes != want {
			t.Fatalf("nodes=%d: HaloBytes %d, want %d", nodes, stats.HaloBytes, want)
		}
		if nodes == 1 && want != 0 {
			t.Fatalf("single node expected no duplication, computed %d", want)
		}
		if nodes >= 4 && want == 0 {
			t.Fatalf("nodes=%d: expected boundary duplication, computed none", nodes)
		}
	}
}
