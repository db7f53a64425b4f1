package cutcp

import (
	"math"

	"triolet/internal/array"
	"triolet/internal/cluster"
	"triolet/internal/core"
	"triolet/internal/domain"
	"triolet/internal/eden"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// ---- codecs ----

// atomsCodec ships atoms as one block copy: Atom is a packed record of
// four float32 words.
var atomsCodec = serial.Records[Atom, float32]()

func geoCodec() serial.Codec[Geometry] {
	return serial.Funcs[Geometry]{
		Enc: func(w *serial.Writer, v Geometry) {
			w.Int(v.Dim.D)
			w.Int(v.Dim.H)
			w.Int(v.Dim.W)
			w.F32(v.Spacing)
			w.F32(v.Cutoff)
		},
		Dec: func(r *serial.Reader) Geometry {
			g := Geometry{
				Dim:     domain.Dim3{D: r.Int(), H: r.Int(), W: r.Int()},
				Spacing: r.F32(),
				Cutoff:  r.F32(),
			}
			if !fits(g.Dim) {
				r.Fail()
				return Geometry{}
			}
			return g
		},
	}
}

// fits reports whether d is a grid a node can allocate: no negative side,
// and D·H·W within int. A worker sizes its grid from a decoded Geometry.
func fits(d domain.Dim3) bool {
	return d.D >= 0 && d.H >= 0 && d.W >= 0 &&
		(d.H == 0 || d.D <= math.MaxInt/d.H) &&
		(d.W == 0 || d.D*d.H <= math.MaxInt/d.W)
}

// ---- Triolet ----

// atomBox is an atom and its cutoff box clipped to the planes zClip: the
// outer element of the cutcp nest, so the box is computed once per atom.
type atomBox struct {
	a          Atom
	zr, yr, xr domain.Range
}

func clipBox(g Geometry, a Atom, zClip domain.Range) atomBox {
	zr, yr, xr := AtomBox(g, a)
	return atomBox{a: a, zr: zr.Intersect(zClip), yr: yr, xr: xr}
}

// cells is the box's extent: 0 for an atom outside the grid or the slab.
func (b atomBox) cells() int { return b.zr.Len() * b.yr.Len() * b.xr.Len() }

// gridPts is the paper's "gridPts a" as a block kernel: it packs into dst
// the updates of cells [base, base+len(dst)) of b's box, in Accumulate's
// z-y-x order, to a grid that starts at plane zLo (the whole grid, or one
// slab). Contribution's ok is the rejection bit. base is un-linearised
// once; the walk keeps running (z, y, x) counters and a row base.
func gridPts(g Geometry, zLo int, b atomBox, dst []iter.Bin[float32], base int) int {
	nx, ny := b.xr.Len(), b.yr.Len()
	z, y, x := b.zr.Lo+base/nx/ny, b.yr.Lo+base/nx%ny, b.xr.Lo+base%nx
	k := 0
	for left := len(dst); left > 0; x, y = b.xr.Lo, y+1 {
		if y == b.yr.Hi {
			y, z = b.yr.Lo, z+1
		}
		row, end := ((z-zLo)*g.Dim.H+y)*g.Dim.W, min(b.xr.Hi, x+left)
		left -= end - x
		for ; x < end; x++ {
			if v, ok := Contribution(g, b.a, domain.Ix3{Z: z, Y: y, X: x}); ok {
				dst[k] = iter.Bin[float32]{I: row + x, W: v}
				k++
			}
		}
	}
	return k
}

// atomUpdates is the cutcp pipeline [f a r | a <- atoms, r <- gridPts a],
// a stream nest: no atom costs a closure (DESIGN.md §8).
func atomUpdates(g Geometry, atoms []Atom, zClip domain.Range) iter.Iter[iter.Bin[float32]] {
	boxes := iter.Idx[atomBox]{N: len(atoms), At: func(i int) atomBox { return clipBox(g, atoms[i], zClip) }}
	return iter.StreamNest(boxes, atomBox.cells, func(b atomBox, dst []iter.Bin[float32], base int) int {
		return gridPts(g, zClip.Lo, b, dst, base)
	})
}

// SeqTriolet runs the cutcp floating-point histogram as a single-threaded
// Triolet iterator pipeline — the "Triolet" bar of paper Fig. 3.
func SeqTriolet(in *Input) []float32 {
	g := in.Geo
	it := atomUpdates(g, in.Atoms, domain.Range{Hi: g.Dim.D})
	return iter.WeightedHistogram(g.Points(), it)
}

// SeqEden runs the Eden-style sequential kernel: imperative loops over
// unboxed arrays (the paper's optimized Eden style for cutcp, §4.1).
func SeqEden(in *Input) []float32 {
	return Seq(in)
}

// SeqEdenIdiomatic is the paper's opening example (§1) taken literally:
//
//	floatHist [f a r | a <- atoms, r <- gridPts a]
//
// with every generated (grid point, contribution) pair allocated as a
// boxed cons cell before the histogram consumes it — the naive
// parallelization starting point whose per-thread performance is an order
// of magnitude below C. Accumulation order matches Seq exactly, so the
// result is bit-identical; only the intermediate representation differs.
func SeqEdenIdiomatic(in *Input) []float32 {
	type upd struct {
		i int
		w float32
	}
	g := in.Geo
	// gridPts a: the boxed list of updates an atom induces.
	gridPts := func(a Atom) *eden.Cell[upd] {
		var updates []upd
		zr, yr, xr := AtomBox(g, a)
		for z := zr.Lo; z < zr.Hi; z++ {
			for y := yr.Lo; y < yr.Hi; y++ {
				base := (z*g.Dim.H + y) * g.Dim.W
				for x := xr.Lo; x < xr.Hi; x++ {
					if v, ok := Contribution(g, a, domain.Ix3{Z: z, Y: y, X: x}); ok {
						updates = append(updates, upd{i: base + x, w: v})
					}
				}
			}
		}
		return eden.FromSlice(updates)
	}
	atoms := eden.FromSlice(in.Atoms)
	all := eden.ConcatMap(gridPts, atoms)
	grid := make([]float32, g.Points())
	eden.Foldl(all, struct{}{}, func(s struct{}, u upd) struct{} {
		grid[u.i] += u.w
		return s
	})
	return grid
}

// atomGrain is the leaf size, in atoms, of the threaded histogram: a leaf
// pays one Split, and an atom is only a few thousand cells. On cutcp-node
// 64 read about a tenth under 1 in alternated pairs, at half the allocation.
const atomGrain = 64

// trioletOp distributes atoms across nodes; each node computes a private
// copy of the whole grid as a thread-parallel floating-point histogram,
// and grids are summed up the reduction tree — exactly the paper's
// "distributed reduction, which performs one threaded reduction per node,
// which sequentially builds one histogram per thread" (§3.4).
var trioletOp = core.NewMapReduce(
	"cutcp.triolet",
	atomsCodec,
	geoCodec(),
	serial.F32s(),
	func(n *cluster.Node, atoms []Atom, g Geometry) ([]float32, error) {
		it := iter.LocalPar(atomUpdates(g, atoms, domain.Range{Hi: g.Dim.D}))
		return core.WeightedHistogramLocal(n.Pool, g.Points(), it, atomGrain), nil
	},
	func(a, b []float32) []float32 { array.AddInto(a, b); return a },
)

// Triolet runs the paper's Triolet implementation.
func Triolet(s *cluster.Session, in *Input) ([]float32, error) {
	return trioletOp.Run(s, core.SliceSource(in.Atoms), in.Geo)
}

// ---- Eden ----

// The Eden port processes subsets of atoms in parallel; every task returns
// a full-size grid that the master adds up. Full grids per task are the
// large messages whose summation dominates cutcp's execution time (§4.5).
type edenTask struct {
	Atoms []Atom
	Geo   Geometry
}

func edenTaskCodec() serial.Codec[edenTask] {
	gc := geoCodec()
	return serial.Funcs[edenTask]{
		Enc: func(w *serial.Writer, v edenTask) {
			atomsCodec.Encode(w, v.Atoms)
			gc.Encode(w, v.Geo)
		},
		Dec: func(r *serial.Reader) edenTask {
			return edenTask{Atoms: atomsCodec.Decode(r), Geo: gc.Decode(r)}
		},
	}
}

// edenProc adds one block of atoms into a full-size grid.
var edenProc = eden.Declare("cutcp.eden", edenTaskCodec(), serial.F32s(), func(t edenTask) []float32 {
	grid := make([]float32, t.Geo.Points())
	for _, a := range t.Atoms {
		Accumulate(t.Geo, a, grid)
	}
	return grid
})

// Eden runs the Eden implementation: one task per process (atom blocks),
// two-level distribution, master-side grid summation.
func Eden(m *eden.Master, in *Input) ([]float32, error) {
	blocks := domain.BlockPartition(len(in.Atoms), m.Config().Processes)
	tasks := make([]edenTask, 0, len(blocks))
	for _, r := range blocks {
		tasks = append(tasks, edenTask{Atoms: in.Atoms[r.Lo:r.Hi], Geo: in.Geo})
	}
	zero := make([]float32, in.Geo.Points())
	return edenProc.ParMapReduce(m, tasks, zero, func(a, b []float32) []float32 { array.AddInto(a, b); return a })
}

// ---- C+MPI+OpenMP reference ----

// Ref is the hand-partitioned reference: atoms scattered, geometry
// broadcast, per-thread private grids merged per node, grids tree-reduced
// to the root.
func Ref(cfg cluster.Config, in *Input) (out []float32, err error) {
	cores := cfg.CoresPerNode
	err = mpi.Run(transport.Config{Ranks: cfg.Nodes}, func(c *mpi.Comm) error {
		pool := sched.NewPool(cores)
		defer pool.Close()

		var parts [][]Atom
		if c.Rank() == 0 {
			parts = make([][]Atom, c.Size())
			for i, r := range domain.BlockPartition(len(in.Atoms), c.Size()) {
				parts[i] = in.Atoms[r.Lo:r.Hi]
			}
		}
		mine, err := mpi.ScatterT(c, 0, atomsCodec, parts)
		if err != nil {
			return err
		}
		var g Geometry
		if c.Rank() == 0 {
			g = in.Geo
		}
		g, err = mpi.BcastT(c, 0, geoCodec(), g)
		if err != nil {
			return err
		}
		private := make([][]float32, pool.Workers())
		for w := range private {
			private[w] = make([]float32, g.Points())
		}
		pool.ParallelFor(len(mine), 1, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				Accumulate(g, mine[i], private[worker])
			}
		})
		local := make([]float32, g.Points())
		for _, p := range private {
			array.AddInto(local, p)
		}
		total, ok, err := mpi.ReduceT(c, serial.F32s(), local,
			func(a, b []float32) []float32 { array.AddInto(a, b); return a })
		if err != nil {
			return err
		}
		if c.Rank() == 0 && ok {
			out = total
		}
		return nil
	})
	return out, err
}
