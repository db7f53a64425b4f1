package diffcheck

import (
	"fmt"
	"time"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/stencil"
)

// Stencil differential oracle: the iterated 2-D stencil skeleton executed
// under {seq, pool, farm@N} × {lossless, lossy} × {fresh, WAL-resume} must
// produce identical final grids. The contract is strict bit-identity even
// for float64 grids — a stencil's per-cell arithmetic order is fixed by the
// kernel, so unlike reductions there is no tree-shape tolerance to grant.

// StencilMode is one cell of the stencil execution matrix. Exec reuses the
// pipeline oracle's levels: Seq and LocalPar are local sweeps, Par is the
// farm-backed skeleton on a virtual cluster.
type StencilMode struct {
	Exec      Exec
	Nodes     int // Par only; 0 means 1
	Fabric    Fabric
	Lifecycle Lifecycle
}

func (m StencilMode) nodes() int {
	if m.Nodes <= 0 {
		return 1
	}
	return m.Nodes
}

func (m StencilMode) String() string {
	switch m.Exec {
	case Seq:
		return "stencil/seq"
	case LocalPar:
		return "stencil/pool"
	}
	s := fmt.Sprintf("stencil/farm@%d", m.nodes())
	if m.Fabric == Lossy {
		s += "/lossy"
	}
	if m.Lifecycle == Resume {
		s += "/resume"
	}
	return s
}

// StencilModes is the gate matrix: local executions, every farm node count
// fresh, and the chaos cells (lossy fabric, and lossy with a mid-job master
// kill resumed from the WAL).
func StencilModes() []StencilMode {
	modes := []StencilMode{{Exec: Seq}, {Exec: LocalPar}}
	for _, n := range []int{1, 2, 4, 8} {
		modes = append(modes, StencilMode{Exec: Par, Nodes: n})
	}
	modes = append(modes,
		StencilMode{Exec: Par, Nodes: 4, Fabric: Lossy},
		StencilMode{Exec: Par, Nodes: 4, Fabric: Lossy, Lifecycle: Resume},
	)
	return modes
}

// StencilCase describes one oracle workload over a deterministically seeded
// grid.
type StencilCase struct {
	H, W  int
	Seed  uint64
	Iters int
}

// The oracle's registered kernels. sum exercises every neighborhood read at
// the declared radius (any mis-resolved boundary index changes the result);
// heat is the float contract witness.
var (
	oracleSum = stencil.NewFarmOp("diffcheck.sum", serial.I64C(), serial.I64s(),
		func(nb stencil.Neighborhood[int64]) int64 {
			r := nb.Radius()
			var s int64
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					s += nb.At(dy, dx)
				}
			}
			return s
		})
	oracleHeat = stencil.NewFarmOp("diffcheck.heat", serial.F64C(), serial.F64s(),
		func(nb stencil.Neighborhood[float64]) float64 {
			c := nb.At(0, 0)
			return c + 0.2*((nb.At(-1, 0)+nb.At(1, 0))+(nb.At(0, -1)+nb.At(0, 1))-4*c)
		})
)

// stencilGrid fills a deterministic H×W grid (same LCG family as the
// pipeline oracle's seeds).
func stencilGrid(c StencilCase) iter.Matrix2[int64] {
	g := iter.Matrix2[int64]{H: c.H, W: c.W, Data: make([]int64, c.H*c.W)}
	x := c.Seed*2862933555777941757 + 3037000493
	for i := range g.Data {
		x = x*2862933555777941757 + 3037000493
		g.Data[i] = int64(x>>40) - 1<<22
	}
	return g
}

// RunStencil executes one case under one mode and returns the final grid.
func RunStencil[T comparable](op *stencil.FarmOp[T], g iter.Matrix2[T], par stencil.Params[T],
	iters int, m StencilMode, opt Options) ([]T, error) {
	fn := op.Fn()
	switch m.Exec {
	case Seq:
		return stencil.Stencil[T]{Params: par, Fn: fn}.Iterate(nil, g, iters).Data, nil
	case LocalPar:
		pool := sched.NewPool(opt.cores())
		defer pool.Close()
		return stencil.Stencil[T]{Params: par, Fn: fn}.Iterate(pool, g, iters).Data, nil
	case Par:
		var out iter.Matrix2[T]
		sweep := func(s *cluster.Session, fo cluster.FarmOptions) error {
			var err error
			out, err = op.Run(s, g, par, iters, stencil.FarmRunOptions{Farm: fo})
			return err
		}
		// A Resume run dies once the WAL holds two slab records: mid-sweep,
		// since each sweep is its own WAL job. Completed sweeps replay from
		// their records; the interrupted one re-runs only unfinished slabs.
		if err := runLifecycle(fabricConfig(m.nodes(), m.Fabric, opt, stencilRetry()), m.Lifecycle, 2, sweep); err != nil {
			return nil, fmt.Errorf("diffcheck: %s: %w", m, err)
		}
		return out.Data, nil
	}
	return nil, fmt.Errorf("diffcheck: unknown exec %d", m.Exec)
}

// stencilRetry is a tighter retry ladder than fastRetry: the iterated
// stencil runs several farm rounds back-to-back, so a single send that
// rides the ladder to exhaustion (peer declared dead, task requeued —
// exactly the chaos being exercised) should cost a fraction of a second,
// not the multi-second worst case of the pipeline oracle's ladder.
func stencilRetry() *mpi.ReliableConfig {
	return &mpi.ReliableConfig{
		AckTimeout:    500 * time.Microsecond,
		Retries:       60,
		MaxAckTimeout: 10 * time.Millisecond,
	}
}

// StencilMismatch reports the first diverging cell between two modes.
type StencilMismatch struct {
	Case   StencilCase
	Par    string // Params description (radius/boundary)
	A, B   StencilMode
	Cell   int
	AV, BV string
}

func (m *StencilMismatch) Error() string {
	return fmt.Sprintf("diffcheck: stencil %dx%d seed %d iters %d %s: %s and %s diverge at cell %d: %s vs %s",
		m.Case.H, m.Case.W, m.Case.Seed, m.Case.Iters, m.Par, m.A, m.B, m.Cell, m.AV, m.BV)
}

// checkStencilModes runs one workload under every mode and demands
// bit-identity with the Seq observation.
func checkStencilModes[T comparable](op *stencil.FarmOp[T], g iter.Matrix2[T], par stencil.Params[T],
	c StencilCase, modes []StencilMode, opt Options) (*StencilMismatch, error) {
	ref := StencilMode{Exec: Seq}
	want, err := RunStencil(op, g, par, c.Iters, ref, opt)
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("r%d/%v", par.Radius, par.Boundary)
	for _, m := range modes {
		if m == ref {
			continue
		}
		got, err := RunStencil(op, g, par, c.Iters, m, opt)
		if err != nil {
			return nil, err
		}
		if len(got) != len(want) {
			return nil, fmt.Errorf("diffcheck: stencil %s: %d cells, want %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return &StencilMismatch{
					Case: c, Par: desc, A: ref, B: m, Cell: i,
					AV: fmt.Sprint(want[i]), BV: fmt.Sprint(got[i]),
				}, nil
			}
		}
	}
	return nil, nil
}

// CheckStencilI64 runs the integer stencil oracle (full-window sum kernel).
func CheckStencilI64(c StencilCase, par stencil.Params[int64], modes []StencilMode, opt Options) (*StencilMismatch, error) {
	return checkStencilModes(oracleSum, stencilGrid(c), par, c, modes, opt)
}

// CheckStencilHeat runs the float stencil oracle (5-point heat kernel,
// radius 1): bit-identity across modes is the FP contract here, because the
// per-cell arithmetic order never varies with the execution mode.
func CheckStencilHeat(c StencilCase, boundary stencil.Boundary, border float64, modes []StencilMode, opt Options) (*StencilMismatch, error) {
	gi := stencilGrid(c)
	g := iter.Matrix2[float64]{H: gi.H, W: gi.W, Data: make([]float64, len(gi.Data))}
	for i, v := range gi.Data {
		g.Data[i] = float64(v%997) / 16
	}
	par := stencil.Params[float64]{Radius: 1, Boundary: boundary, Border: border}
	return checkStencilModes(oracleHeat, g, par, c, modes, opt)
}
