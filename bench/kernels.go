package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/serial"
	"triolet/internal/stencil"
)

// The kernels the benchmark registers with the system under test, and the
// hand-written twins each one is checked and timed against. Kernels are
// registered once at init, like every other binary in the repo; the names
// carry a "perf." prefix so they cannot collide with a product kernel.

var (
	heatOp = stencil.NewOp("perf.heat", serial.F64C(), serial.F64s(), heatCell)
	lifeOp = stencil.NewFarmOp("perf.life", serial.I64C(), serial.I64s(), lifeCell)
)

const (
	hashKernel = "perf.hash"
	noopKernel = "perf.noop"
	// hashRounds sizes the job-service task at about 100 µs on this host;
	// the real figure is calibrated at run time by calling hashTask directly.
	hashRounds = 48 << 10
)

func init() {
	cluster.RegisterFarm(hashKernel, func(_ *cluster.Node, task []byte) ([]byte, error) {
		return hashTask(task)
	})
	cluster.RegisterFarm(noopKernel, func(_ *cluster.Node, task []byte) ([]byte, error) {
		return task, nil
	})
}

// hashTask is the job-service kernel: a pure integer mix of the task's
// 8-byte seed, hashRounds long. It is called through the farm by the system
// and directly by the benchmark (output check, kernel-time calibration).
func hashTask(task []byte) ([]byte, error) {
	if len(task) != 8 {
		return nil, fmt.Errorf("perf.hash: task is %d bytes, want 8", len(task))
	}
	x := binary.LittleEndian.Uint64(task)
	for i := 0; i < hashRounds; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x += 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.AppendUint64(nil, x), nil
}

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

// lcg is the input generators' seeded stream.
type lcg uint64

func newLCG(seed uint64) lcg { return lcg(seed*2862933555777941757 + 3037000493) }

func (x *lcg) next() uint64 {
	*x = *x*2862933555777941757 + 3037000493
	return uint64(*x >> 16)
}

// genHeatGrid fills a deterministic h×w temperature field.
func genHeatGrid(h, w int, seed uint64) iter.Matrix2[float64] {
	g := iter.Matrix2[float64]{H: h, W: w, Data: make([]float64, h*w)}
	x := newLCG(seed)
	for i := range g.Data {
		g.Data[i] = float64(x.next()%4099) / 16
	}
	return g
}

// genLifeGrid fills a deterministic h×w life board at 3/8 density.
func genLifeGrid(h, w int, seed uint64) iter.Matrix2[int64] {
	g := iter.Matrix2[int64]{H: h, W: w, Data: make([]int64, h*w)}
	x := newLCG(seed)
	for i := range g.Data {
		if x.next()%8 < 3 {
			g.Data[i] = 1
		}
	}
	return g
}

// heatSweepRaw is one hand-written heat sweep, Normal boundary: edge cells
// carry their previous value.
func heatSweepRaw(dst, src []float64, h, w int) {
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
}

// lifeSweepRaw is one hand-written Life generation, Wrap boundary.
func lifeSweepRaw(dst, src []int64, h, w int) {
	for y := 0; y < h; y++ {
		up := ((y - 1 + h) % h) * w
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
}

// rawGrids is the hand-written twin's pair of buffers, allocated once so
// that a timed twin run is the loop alone, with no page faults of its own.
type rawGrids[T any] struct{ a, b []T }

func newRawGrids[T any](cells int) *rawGrids[T] {
	return &rawGrids[T]{a: make([]T, cells), b: make([]T, cells)}
}

// iterate runs sweeps double-buffered sweeps of a hand-written kernel over g
// on one thread and returns the final generation, valid until the next call;
// g is not modified.
func (rg *rawGrids[T]) iterate(g iter.Matrix2[T], sweeps int, sweep func(dst, src []T, h, w int)) []T {
	a, b := rg.a, rg.b
	copy(a, g.Data)
	for i := 0; i < sweeps; i++ {
		sweep(b, a, g.H, g.W)
		a, b = b, a
	}
	return a
}

// fnvF64 and fnvI64 checksum a grid's exact bit pattern.
func fnvF64(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func fnvI64(xs []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}
