// Package stencil implements the iterated 2-D stencil skeleton over the
// two-level runtime: a grid type with a row-slab partition map, an explicit
// halo-exchange primitive over mpi.Comm with attributed ghost traffic, and
// the four SkeLibEd boundary strategies (NORMAL, WRAP, MIRROR, BORDER).
//
// Every sweep — local, slab, farm task — is one row-range loop over a
// halo-padded window (sweeper): interior cells run the kernel straight off
// the window, each neighborhood read one inlined load; the few cells whose
// window leaves the buffer have their reads staged through the boundary
// strategy first. The cross-node paths (Op over collectives, FarmOp over
// Session.Farm) slab the grid by rows with radius-r ghost rows contiguous
// to the owned rows; Op hides each halo exchange behind the interior rows.
//
// Boundary semantics, after SkeLibEd:
//
//   - Normal: a cell whose full (2r+1)² neighborhood does not fit inside
//     the grid carries its previous value; no out-of-grid read happens.
//   - Wrap: out-of-grid indices wrap toroidally (modulo the axis length).
//   - Mirror: out-of-grid indices reflect at the edge with edge
//     duplication (… 1 0 | 0 1 … n-1 | n-1 n-2 …) — a period-2n fold,
//     well-defined for any radius, including radius ≥ the axis length.
//   - Border: out-of-grid reads resolve to a caller-supplied constant.
package stencil

import (
	"fmt"

	"triolet/internal/iter"
	"triolet/internal/sched"
)

// Boundary selects how neighborhood reads outside the grid resolve.
type Boundary uint8

const (
	Normal Boundary = iota
	Wrap
	Mirror
	Border
	boundaryCount
)

// String names the strategy.
func (b Boundary) String() string {
	switch b {
	case Normal:
		return "NORMAL"
	case Wrap:
		return "WRAP"
	case Mirror:
		return "MIRROR"
	case Border:
		return "BORDER"
	}
	return fmt.Sprintf("Boundary(%d)", uint8(b))
}

// Params are the data half of a stencil: everything but the kernel
// function. Distributed ops ship Params on the wire (header or task
// payload) so one registered kernel serves every radius and strategy.
type Params[T any] struct {
	// Radius is the neighborhood reach: a cell reads offsets in
	// [-Radius, +Radius] on both axes.
	Radius int
	// Boundary selects the out-of-grid read strategy.
	Boundary Boundary
	// Border is the constant out-of-grid reads resolve to under the
	// Border strategy; ignored otherwise.
	Border T
}

func (p Params[T]) check() error {
	if p.Radius < 0 {
		return fmt.Errorf("stencil: negative radius %d", p.Radius)
	}
	if p.Boundary >= boundaryCount {
		return fmt.Errorf("stencil: unknown boundary strategy %d", uint8(p.Boundary))
	}
	return nil
}

// Func computes one cell's next value from its neighborhood. It must be
// pure: kernels run concurrently over disjoint output rows and may run
// twice under fault-tolerant execution.
type Func[T any] func(nb Neighborhood[T]) T

// Stencil couples Params with the kernel function — the complete local
// stencil, applied with Sweep or Iterate.
type Stencil[T any] struct {
	Params[T]
	Fn Func[T]
}

// Neighborhood is the read window handed to a kernel: At(dy, dx) reads the
// cell offset (dy, dx) from the center, |dy|,|dx| ≤ Radius, with
// out-of-grid reads resolved by the boundary strategy. It is a small value;
// passing it by value keeps kernels allocation-free.
type Neighborhood[T any] struct {
	win  *window[T]
	c    int // center's index into win.buf
	y, x int // center, in global grid coordinates
}

// Y reports the center's global row.
func (nb Neighborhood[T]) Y() int { return nb.y }

// X reports the center's global column.
func (nb Neighborhood[T]) X() int { return nb.x }

// Radius reports the declared radius, so one registered kernel can serve
// any radius carried in Params.
func (nb Neighborhood[T]) Radius() int { return nb.win.radius }

// At reads the cell at offset (dy, dx) from the center: one indexed load,
// no branch, so the compiler inlines it into the kernel (cost 15 of a budget
// of 80; a real call per read costs the sweep 3×, and scripts/inline-gate.sh
// keeps it so). Reads needing a boundary decision are resolved before the
// kernel runs (sweeper.edge).
func (nb Neighborhood[T]) At(dy, dx int) T { return nb.win.buf[nb.c+dy*nb.win.stride+dx] }

// The benchmarks' two element shapes, instantiated here so that
// `go build -gcflags=-m=2 ./internal/stencil` prints At's inlining verdict.
var _, _ = Neighborhood[float64].At, Neighborhood[int64].At

// window is what a Neighborhood indexes: a row-major buffer holding the
// whole (2·radius+1)² square around every center handed out.
type window[T any] struct {
	buf            []T
	stride, radius int
}

// sweeper runs sweeps over one padded window: the nRows rows this rank owns
// (from global row rowLo) between pad ghost rows above and pad below, each
// stride = grid width cells wide, in one buffer. Distributed sweeps have
// pad = radius and strategy-resolved ghosts, so every row's window is
// resident; a local (whole-grid) sweep has pad = 0. A cell whose window is
// not resident — grid-edge columns, grid-edge rows of a local sweep — has
// its reads staged: resolved through at into the executing worker's side²
// cells of stage, which the kernel indexes exactly like the window.
type sweeper[T any] struct {
	window[T]
	Params[T]
	stage             window[T] // side = 2·radius+1
	h                 int       // global grid height
	rowLo, nRows, pad int
}

func newSweeper[T any](par Params[T], buf []T, h, w, rowLo, nRows, pad int) sweeper[T] {
	return sweeper[T]{window: window[T]{buf, w, par.Radius}, Params: par, h: h, rowLo: rowLo, nRows: nRows, pad: pad}
}

// at resolves global cell (y, x): where a read meets the boundary strategy.
func (s *sweeper[T]) at(y, x int) T {
	x, okx := mapIndex(x, s.stride, s.Boundary)
	row, oky := y-s.rowLo+s.pad, true
	if row < 0 || row >= s.nRows+2*s.pad {
		// Only a local sweep gets here: row = y, and it owns every in-grid row.
		row, oky = mapIndex(y, s.h, s.Boundary)
	}
	if !okx || !oky {
		return s.Border
	}
	return s.buf[row*s.stride+x]
}

// mapIndex resolves index i on a length-n axis under boundary strategy b.
// ok=false means the read resolves to the border constant. Normal never
// reaches an out-of-range index: cells without a full in-grid neighborhood
// carry their previous value instead of reading out of grid.
func mapIndex(i, n int, b Boundary) (int, bool) {
	if i >= 0 && i < n {
		return i, true
	}
	switch b {
	case Wrap:
		i %= n
		if i < 0 {
			i += n
		}
		return i, true
	case Mirror:
		// Edge-duplicating reflection is a period-2n triangular fold:
		// fold i into [0, 2n), then indices in [n, 2n) read back as
		// 2n-1-i. Valid for any radius, including radius ≥ n.
		p := 2 * n
		i %= p
		if i < 0 {
			i += p
		}
		if i >= n {
			i = p - 1 - i
		}
		return i, true
	default: // Border; Normal for safety
		return 0, false
	}
}

// run writes the next generation of owned rows [lo, hi) into out (nRows ×
// stride, no ghosts), in whole-row leaves on the pool.
func (s *sweeper[T]) run(pool *sched.Pool, fn Func[T], out []T, lo, hi int) {
	workers, grain := 1, sched.RowGrain(s.stride)
	if pool != nil && hi-lo > grain {
		workers = pool.Workers()
	}
	if side := 2*s.radius + 1; s.Boundary != Normal && len(s.stage.buf) < workers*side*side {
		s.stage = window[T]{buf: make([]T, workers*side*side), stride: side, radius: s.radius}
	}
	if workers == 1 {
		s.rows(fn, out, 0, lo, hi)
		return
	}
	pool.ParallelFor(hi-lo, grain, func(worker, a, b int) { s.rows(fn, out, worker, lo+a, lo+b) })
}

// rows sweeps output rows [lo, hi): per row it carries Normal's
// out-of-grid rows and columns, stages the cells whose window is not
// resident, and runs the interior columns straight off the window.
func (s *sweeper[T]) rows(fn Func[T], out []T, worker, lo, hi int) {
	r, w := s.radius, s.stride
	xlo, xhi := min(r, w), max(w-r, min(r, w))
	for y := lo; y < hi; y++ {
		gy, base := s.rowLo+y, (y+s.pad)*w
		dst, src := out[y*w:(y+1)*w], s.buf[base:base+w]
		ilo, ihi := xlo, xhi // interior columns: the cell's window is resident
		carry := s.Boundary == Normal && (gy < r || gy+r >= s.h)
		if resident := y+s.pad >= r && y+r < s.nRows+s.pad; carry || !resident {
			ilo, ihi = w, w
		}
		if s.Boundary == Normal {
			// No full in-grid neighborhood — carry the old value.
			copy(dst[:ilo], src[:ilo])
			copy(dst[ihi:], src[ihi:])
		} else {
			s.edge(fn, dst, worker, gy, 0, ilo)
			s.edge(fn, dst, worker, gy, ihi, w)
		}
		apply(fn, dst[ilo:ihi], Neighborhood[T]{win: &s.window, c: base + ilo, y: gy, x: ilo})
	}
}

// edge computes cells [x0, x1) of global row gy, whose windows are not
// resident, each staged through at into worker's cells of stage.
func (s *sweeper[T]) edge(fn Func[T], dst []T, worker, gy, x0, x1 int) {
	r, side := s.radius, s.stage.stride
	k0 := worker * side * side
	for x := x0; x < x1; x++ {
		k := k0
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				s.stage.buf[k] = s.at(gy+dy, x+dx)
				k++
			}
		}
		apply(fn, dst[x:x+1], Neighborhood[T]{win: &s.stage, c: k0 + r*side + r, y: gy, x: x})
	}
}

// apply is the one loop that calls the kernel: dst is a run of one output
// row, nb its first cell's neighborhood, the next center the next index.
func apply[T any](fn Func[T], dst []T, nb Neighborhood[T]) {
	for i := range dst {
		dst[i] = fn(nb)
		nb.x++
		nb.c++
	}
}

func (st Stencil[T]) checkGrid(g iter.Matrix2[T]) {
	if err := st.check(); err != nil {
		panic(err)
	}
	if len(g.Data) != g.H*g.W {
		panic(fmt.Sprintf("stencil: %dx%d grid with %d cells", g.H, g.W, len(g.Data)))
	}
}

func (st Stencil[T]) check() error {
	if st.Fn == nil {
		return fmt.Errorf("stencil: nil kernel")
	}
	return st.Params.check()
}

// Sweep applies the stencil once, writing step(src) into dst. src and dst
// must have the same shape and must not alias: the whole point of the
// double buffer is that a sweep reads a consistent previous generation.
func (st Stencil[T]) Sweep(pool *sched.Pool, dst, src iter.Matrix2[T]) {
	st.checkGrid(src)
	if dst.H != src.H || dst.W != src.W {
		panic(fmt.Sprintf("stencil: sweep %dx%d into %dx%d", src.H, src.W, dst.H, dst.W))
	}
	s := newSweeper(st.Params, src.Data, src.H, src.W, 0, src.H, 0)
	s.run(pool, st.Fn, dst.Data, 0, src.H)
}

// Iterate applies the stencil iters times with double buffering — two
// grids alternate roles, allocated once — and returns the final
// generation. g itself is never written. pool may be nil for a sequential
// sweep.
func (st Stencil[T]) Iterate(pool *sched.Pool, g iter.Matrix2[T], iters int) iter.Matrix2[T] {
	st.checkGrid(g)
	front := g.Clone()
	if iters <= 0 {
		return front
	}
	back := iter.Matrix2[T]{H: g.H, W: g.W, Data: make([]T, len(g.Data))}
	for i := 0; i < iters; i++ {
		st.Sweep(pool, back, front)
		front, back = back, front
	}
	return front
}
