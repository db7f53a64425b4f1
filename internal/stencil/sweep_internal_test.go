package stencil

import (
	"fmt"
	"sync"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// tableCell serves every radius (it asks the neighborhood) and weights each
// offset differently, so a transposed, shifted or mis-staged window shows.
func tableCell(nb Neighborhood[int64]) int64 {
	r := nb.Radius()
	acc := int64(nb.Y()*31 + nb.X())
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			acc += int64(7*dy+dx+29) * nb.At(dy, dx)
		}
	}
	return acc % 1000003
}

var (
	tableOp   = NewOp("test.table", serial.I64C(), serial.I64s(), tableCell)
	tableFarm = NewFarmOp("test.table", serial.I64C(), serial.I64s(), tableCell)
)

// tableRef is tableCell iterated the direct way: every read goes through
// mapIndex on both axes, no window, no slab, no staging.
func tableRef(g iter.Matrix2[int64], par Params[int64], iters int) []int64 {
	cur, next := append([]int64(nil), g.Data...), make([]int64, len(g.Data))
	r, h, w := par.Radius, g.H, g.W
	for ; iters > 0; iters-- {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if par.Boundary == Normal && (y < r || y+r >= h || x < r || x+r >= w) {
					next[y*w+x] = cur[y*w+x]
					continue
				}
				acc := int64(y*31 + x)
				for dy := -r; dy <= r; dy++ {
					for dx := -r; dx <= r; dx++ {
						v := par.Border
						my, oky := mapIndex(y+dy, h, par.Boundary)
						mx, okx := mapIndex(x+dx, w, par.Boundary)
						if oky && okx {
							v = cur[my*w+mx]
						}
						acc += int64(7*dy+dx+29) * v
					}
				}
				next[y*w+x] = acc % 1000003
			}
		}
		cur, next = next, cur
	}
	return cur
}

type tableCase struct {
	name string
	g    iter.Matrix2[int64]
	par  Params[int64]
	want []int64
}

const tableIters = 3

func tableCases() []tableCase {
	var cases []tableCase
	for _, b := range []Boundary{Normal, Wrap, Mirror, Border} {
		for radius := 0; radius <= 3; radius++ {
			for _, sh := range [][2]int{{1, 1}, {3, 2}, {2, 7}, {5, 5}, {16, 9}} {
				g := iter.Matrix2[int64]{H: sh[0], W: sh[1], Data: make([]int64, sh[0]*sh[1])}
				for i := range g.Data {
					g.Data[i] = int64((i*2654435761 + radius) % 9973)
				}
				par := Params[int64]{Radius: radius, Boundary: b, Border: -5}
				cases = append(cases, tableCase{
					name: fmt.Sprintf("%v/r%d/%dx%d", b, radius, sh[0], sh[1]),
					g:    g, par: par, want: tableRef(g, par, tableIters),
				})
			}
		}
	}
	return cases
}

func (c tableCase) check(t *testing.T, mode string, got []int64) {
	t.Helper()
	if len(got) != len(c.want) {
		t.Errorf("%s %s: %d cells, want %d", mode, c.name, len(got), len(c.want))
		return
	}
	for i := range c.want {
		if got[i] != c.want[i] {
			t.Errorf("%s %s: cell (%d,%d) = %d, want %d", mode, c.name, i/c.g.W, i%c.g.W, got[i], c.want[i])
			return
		}
	}
}

// TestBoundaryShapeTable compares every execution of the skeleton — local
// with and without a pool, Op on 1–3 ranks (more ranks than rows, radius ≥
// slab height, radius ≥ axis), FarmOp with 1–4 slabs — against tableRef,
// over all four strategies × radius 0–3 × five shapes, every cell.
func TestBoundaryShapeTable(t *testing.T) {
	cases := tableCases()
	pool := sched.NewPool(3)
	defer pool.Close()
	for _, c := range cases {
		st := Stencil[int64]{Params: c.par, Fn: tableCell}
		c.check(t, "seq", st.Iterate(nil, c.g, tableIters).Data)
		c.check(t, "pool", st.Iterate(pool, c.g, tableIters).Data)
	}
	for nodes := 1; nodes <= 3; nodes++ {
		mode := fmt.Sprintf("op@%d", nodes)
		_, err := cluster.Run(cluster.Config{Nodes: nodes, CoresPerNode: 2}, func(s *cluster.Session) error {
			for _, c := range cases {
				got, err := tableOp.Run(s, c.g, c.par, tableIters)
				if err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				c.check(t, mode, got.Data)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
	_, err := cluster.Run(cluster.Config{Nodes: 2, CoresPerNode: 2}, func(s *cluster.Session) error {
		for _, c := range cases {
			for slabs := 1; slabs <= 4; slabs++ {
				got, err := tableFarm.Run(s, c.g, c.par, tableIters, FarmRunOptions{Slabs: slabs})
				if err != nil {
					return fmt.Errorf("%s slabs %d: %w", c.name, slabs, err)
				}
				c.check(t, fmt.Sprintf("farm/%d", slabs), got.Data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("farm: %v", err)
	}
}

// stepRanks iterates Slab.step on every rank of a lossless fabric — each on
// its own pool of the given size, none for 0 — and returns the slabs' final
// rows concatenated in rank order.
func stepRanks(t *testing.T, ranks int, g iter.Matrix2[int64], par Params[int64], workers, iters int) []int64 {
	t.Helper()
	f := transport.New(transport.Config{Ranks: ranks})
	defer f.Close()
	part := NewPartition(g.H, g.W, ranks)
	out := make([][]int64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var pool *sched.Pool
			if workers > 0 {
				pool = sched.NewPool(workers)
				defer pool.Close()
			}
			own := part.Rows[r]
			sl, err := NewSlab(part, r, par, serial.I64s(), g.Data[own.Lo*g.W:own.Hi*g.W])
			for i := 0; i < iters && err == nil; i++ {
				err = sl.step(mpi.NewComm(f, r), pool, tableCell)
			}
			if errs[r] = err; err == nil {
				out[r] = sl.Rows()
			}
		}(r)
	}
	wg.Wait()
	var all []int64
	for r := range out {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		all = append(all, out[r]...)
	}
	return all
}

// TestOverlappedStep drives the post → interior → finish → ends step
// directly. A slab of at most 2·radius rows has no interior and must fall
// through to "finish, then sweep everything"; a taller one splits; and
// neither may differ from the reference.
func TestOverlappedStep(t *testing.T) {
	for _, tc := range []struct {
		name            string
		h, ranks, r     int
		wantNoInterior  bool // every slab has height ≤ 2r
		wantAllInterior bool // every slab has height > 2r
	}{
		{"no-interior", 8, 2, 2, true, false},         // heights 4, 4 = 2r
		{"shorter-than-radius", 5, 3, 3, true, false}, // heights 2, 2, 1 < r
		{"interior", 16, 2, 2, false, true},           // heights 8, 8
		{"mixed", 9, 2, 2, false, false},              // heights 5, 4
		{"radius-0", 6, 3, 0, false, true},            // all interior, nothing exchanged
	} {
		part := NewPartition(tc.h, 7, tc.ranks)
		none, all := true, true
		for _, rng := range part.Rows {
			if rng.Len() > 2*tc.r {
				none = false
			} else {
				all = false
			}
		}
		if none != tc.wantNoInterior || all != tc.wantAllInterior {
			t.Fatalf("%s: partition %v does not exercise the intended branch", tc.name, part.Rows)
		}
		for _, b := range []Boundary{Normal, Wrap, Mirror, Border} {
			g := iter.Matrix2[int64]{H: tc.h, W: 7, Data: make([]int64, tc.h*7)}
			for i := range g.Data {
				g.Data[i] = int64(i*i%977 + 1)
			}
			par := Params[int64]{Radius: tc.r, Boundary: b, Border: 11}
			c := tableCase{name: fmt.Sprintf("%s/%v", tc.name, b), g: g, par: par, want: tableRef(g, par, 4)}
			c.check(t, "step", stepRanks(t, tc.ranks, g, par, 0, 4))
			c.check(t, "step+pool", stepRanks(t, tc.ranks, g, par, 3, 4))
		}
	}
}

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
