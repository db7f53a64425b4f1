package main

import (
	"testing"

	"triolet/internal/iter"
	"triolet/internal/serial"
	"triolet/internal/stencil"
)

// Stencil benchmark workloads: a 5-point heat-diffusion kernel (float64,
// collective-backed Op) and Conway's Game of Life (int64 cells, farm-backed
// FarmOp). Both serve two consumers: the bench gate (fused sweep vs
// hand-written loop twin) and the golden tests (committed checksums of
// final grids).

var (
	benchHeat = stencil.NewOp("bench.heat", serial.F64C(), serial.F64s(), heatCell)
	benchLife = stencil.NewFarmOp("bench.life", serial.I64C(), serial.I64s(), lifeCell)
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

// Bench-gate twins: one stencil sweep through the block engine vs the same
// sweep as hand-written nested loops over the same buffers. Grids are sized
// to match the 1-D gate data (2^15-ish cells).
var (
	stencilHeatSrc = genHeatGrid(192, 176, 29)
	stencilHeatDst = iter.Matrix2[float64]{H: 192, W: 176, Data: make([]float64, 192*176)}
	stencilLifeSrc = genLifeGrid(192, 176, 31)
	stencilLifeDst = iter.Matrix2[int64]{H: 192, W: 176, Data: make([]int64, 192*176)}
)

var stencilGateCases = []gateCase{
	{
		// NORMAL boundary: edge cells carry their previous value, interior
		// cells diffuse — the raw twin writes exactly that.
		Name: "heat-sweep",
		Pipeline: func(b *testing.B) {
			st := stencil.Stencil[float64]{
				Params: stencil.Params[float64]{Radius: 1, Boundary: stencil.Normal},
				Fn:     heatCell,
			}
			for b.Loop() {
				st.Sweep(nil, stencilHeatDst, stencilHeatSrc)
			}
		},
		Raw: func(b *testing.B) {
			h, w := stencilHeatSrc.H, stencilHeatSrc.W
			src, dst := stencilHeatSrc.Data, stencilHeatDst.Data
			for b.Loop() {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						i := y*w + x
						if y == 0 || y == h-1 || x == 0 || x == w-1 {
							dst[i] = src[i]
							continue
						}
						c := src[i]
						dst[i] = c + 0.2*((src[i-w]+src[i+w])+(src[i-1]+src[i+1])-4*c)
					}
				}
				gateSinkF = dst[w+1]
			}
		},
	},
	{
		// WRAP boundary: the raw twin resolves toroidal neighbors with
		// precomputed wrapped row offsets and per-cell column wrapping.
		Name: "life-sweep",
		Pipeline: func(b *testing.B) {
			st := stencil.Stencil[int64]{
				Params: stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap},
				Fn:     lifeCell,
			}
			for b.Loop() {
				st.Sweep(nil, stencilLifeDst, stencilLifeSrc)
			}
		},
		Raw: func(b *testing.B) {
			h, w := stencilLifeSrc.H, stencilLifeSrc.W
			src, dst := stencilLifeSrc.Data, stencilLifeDst.Data
			for b.Loop() {
				for y := 0; y < h; y++ {
					up := ((y-1+h)%h)*w
					mid := y * w
					dn := ((y + 1) % h) * w
					for x := 0; x < w; x++ {
						l := (x - 1 + w) % w
						r := (x + 1) % w
						n := src[up+l] + src[up+x] + src[up+r] +
							src[mid+l] + src[mid+r] +
							src[dn+l] + src[dn+x] + src[dn+r]
						switch n {
						case 3:
							dst[mid+x] = 1
						case 2:
							dst[mid+x] = src[mid+x]
						default:
							dst[mid+x] = 0
						}
					}
				}
				gateSink = dst[w+1]
			}
		},
	},
}

func init() {
	gateCases = append(gateCases, stencilGateCases...)
}
