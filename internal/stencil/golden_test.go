package stencil_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/serial"
	"triolet/internal/stencil"
)

// Golden tests pin two stencil workloads to committed checksums: a 5-point
// heat-diffusion kernel (float64, collective-backed Op) and Conway's Game
// of Life (int64 cells, farm-backed FarmOp). The grids are deterministic,
// the kernels fix their arithmetic order, and every execution path is
// bit-identical, so the FNV-1a digest of the final grid is a single
// committed number. A digest change means the workload's semantics changed
// — regenerate deliberately or find the regression.

const (
	goldenHeatSum uint64 = 0x332773e2fbe7f980
	goldenLifeSum uint64 = 0xcaaa87fc2af09b25
)

var (
	goldenHeat = stencil.NewOp("golden.heat", serial.F64C(), serial.F64s(), heatCell)
	goldenLife = stencil.NewFarmOp("golden.life", serial.I64C(), serial.I64s(), lifeCell)
)

// heatCell is explicit five-point diffusion with a fixed evaluation order,
// so every execution mode produces bit-identical float grids.
func heatCell(nb stencil.Neighborhood[float64]) float64 {
	c := nb.At(0, 0)
	return c + 0.2*((nb.At(-1, 0)+nb.At(1, 0))+(nb.At(0, -1)+nb.At(0, 1))-4*c)
}

// lifeCell is Conway's rule over the radius-1 Moore neighborhood.
func lifeCell(nb stencil.Neighborhood[int64]) int64 {
	var n int64
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dy != 0 || dx != 0 {
				n += nb.At(dy, dx)
			}
		}
	}
	switch n {
	case 3:
		return 1
	case 2:
		return nb.At(0, 0)
	default:
		return 0
	}
}

// genHeatGrid fills a deterministic h×w temperature field.
func genHeatGrid(h, w int, seed uint64) iter.Matrix2[float64] {
	g := iter.Matrix2[float64]{H: h, W: w, Data: make([]float64, h*w)}
	x := seed*2862933555777941757 + 3037000493
	for i := range g.Data {
		x = x*2862933555777941757 + 3037000493
		g.Data[i] = float64(x%4099) / 16
	}
	return g
}

// genLifeGrid fills a deterministic h×w life board at ~3/8 density.
func genLifeGrid(h, w int, seed uint64) iter.Matrix2[int64] {
	g := iter.Matrix2[int64]{H: h, W: w, Data: make([]int64, h*w)}
	x := seed*2862933555777941757 + 3037000493
	for i := range g.Data {
		x = x*2862933555777941757 + 3037000493
		if x%8 < 3 {
			g.Data[i] = 1
		}
	}
	return g
}

func checksumF64(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func checksumI64(xs []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenHeat pins 10 generations of heat diffusion (Mirror boundary)
// through the collective-backed Op on a 4-node cluster, and checks the
// distributed result is bit-identical to the local sweep.
func TestGoldenHeat(t *testing.T) {
	g := genHeatGrid(64, 48, 97)
	par := stencil.Params[float64]{Radius: 1, Boundary: stencil.Mirror}
	local := stencil.Stencil[float64]{Params: par, Fn: goldenHeat.Fn()}.Iterate(nil, g, 10)

	dist := local
	_, err := cluster.Run(cluster.Config{Nodes: 4, CoresPerNode: 2}, func(s *cluster.Session) error {
		var err error
		dist, err = goldenHeat.Run(s, g, par, 10)
		return err
	})
	if err != nil {
		t.Fatalf("heat run: %v", err)
	}
	for i := range local.Data {
		if dist.Data[i] != local.Data[i] {
			t.Fatalf("cell %d: distributed %v, local %v", i, dist.Data[i], local.Data[i])
		}
	}
	if sum := checksumF64(dist.Data); sum != goldenHeatSum {
		t.Fatalf("heat checksum %#x, golden %#x", sum, goldenHeatSum)
	}
}

// TestGoldenLife pins 12 generations of Game of Life (Wrap boundary)
// through the farm-backed FarmOp, likewise cross-checked against the local
// sweep.
func TestGoldenLife(t *testing.T) {
	g := genLifeGrid(56, 40, 59)
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	local := stencil.Stencil[int64]{Params: par, Fn: goldenLife.Fn()}.Iterate(nil, g, 12)

	dist := local
	_, err := cluster.Run(cluster.Config{Nodes: 4, CoresPerNode: 2}, func(s *cluster.Session) error {
		var err error
		dist, err = goldenLife.Run(s, g, par, 12, stencil.FarmRunOptions{})
		return err
	})
	if err != nil {
		t.Fatalf("life run: %v", err)
	}
	for i := range local.Data {
		if dist.Data[i] != local.Data[i] {
			t.Fatalf("cell %d: distributed %d, local %d", i, dist.Data[i], local.Data[i])
		}
	}
	if sum := checksumI64(dist.Data); sum != goldenLifeSum {
		t.Fatalf("life checksum %#x, golden %#x", sum, goldenLifeSum)
	}
}
