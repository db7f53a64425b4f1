package cutcp

import (
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

func atomsCodec() serial.Codec[[]Atom] {
	return serial.Funcs[[]Atom]{
		Enc: func(w *serial.Writer, v []Atom) {
			w.Int(len(v))
			for _, a := range v {
				w.F32(a.X)
				w.F32(a.Y)
				w.F32(a.Z)
				w.F32(a.Q)
			}
		},
		Dec: func(r *serial.Reader) []Atom {
			n := r.Int()
			if r.Err() != nil || n < 0 || n > r.Remaining()/16 {
				return nil
			}
			out := make([]Atom, n)
			for i := range out {
				out[i] = Atom{X: r.F32(), Y: r.F32(), Z: r.F32(), Q: r.F32()}
			}
			return out
		},
	}
}

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
			return Geometry{
				Dim:     domain.Dim3{D: r.Int(), H: r.Int(), W: r.Int()},
				Spacing: r.F32(),
				Cutoff:  r.F32(),
			}
		},
	}
}

// ---- Triolet ----

// gridPts is the paper's "gridPts a" generator: the weighted histogram
// updates one atom induces on the grid planes zClip, as bins of a grid that
// starts at plane zClip.Lo (the whole grid for Triolet, one slab for
// TrioletSlab). The atom's clipped bounding box is a bounded nest, so it is
// one partial indexer, not a ConcatMap over rows: At un-linearises k to
// (z, y, x) in Accumulate's z-y-x order and Contribution's own ok is the
// rejection bit. That is one closure per atom, where ConcatMap's closure
// form costs Go one allocation per outer element — here, per row of every
// box (DESIGN.md §8). An empty box (atom outside the grid or the slab) has
// N = 0. The aggregate is irregular: atoms near the grid boundary
// contribute fewer updates.
func gridPts(g Geometry, a Atom, zClip domain.Range) iter.Iter[iter.Bin[float32]] {
	zr, yr, xr := AtomBox(g, a)
	zr = zr.Intersect(zClip)
	// 32-bit operands: a box is far below 2^32 cells, and At divides twice
	// per cell.
	ny, nx := uint32(yr.Len()), uint32(xr.Len())
	return iter.IdxFilter(iter.FIdx[iter.Bin[float32]]{N: zr.Len() * yr.Len() * xr.Len(), At: func(k int) (iter.Bin[float32], bool) {
		row := uint32(k) / nx
		z, y, x := zr.Lo+int(row/ny), yr.Lo+int(row%ny), xr.Lo+int(uint32(k)%nx)
		v, ok := Contribution(g, a, domain.Ix3{Z: z, Y: y, X: x})
		return iter.Bin[float32]{I: ((z-zClip.Lo)*g.Dim.H+y)*g.Dim.W + x, W: v}, ok
	}})
}

// atomUpdates is the cutcp pipeline [f a r | a <- atoms, r <- gridPts a].
func atomUpdates(g Geometry, atoms []Atom, zClip domain.Range) iter.Iter[iter.Bin[float32]] {
	return iter.ConcatMap(func(a Atom) iter.Iter[iter.Bin[float32]] {
		return gridPts(g, a, zClip)
	}, iter.FromSlice(atoms))
}

// SeqTriolet runs the cutcp floating-point histogram as a single-threaded
// Triolet iterator pipeline — the "Triolet" bar of paper Fig. 3.
func SeqTriolet(in *Input) []float32 {
	g := in.Geo
	return iter.WeightedHistogram(g.Points(), atomUpdates(g, in.Atoms, domain.Range{Hi: g.Dim.D}))
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
	atomsCodec(),
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
	ac, gc := atomsCodec(), geoCodec()
	return serial.Funcs[edenTask]{
		Enc: func(w *serial.Writer, v edenTask) {
			ac.Encode(w, v.Atoms)
			gc.Encode(w, v.Geo)
		},
		Dec: func(r *serial.Reader) edenTask {
			return edenTask{Atoms: ac.Decode(r), Geo: gc.Decode(r)}
		},
	}
}

func init() {
	eden.RegisterProcess("cutcp.eden", func(_ *eden.Proc, b []byte) ([]byte, error) {
		t, err := serial.Unmarshal(edenTaskCodec(), b)
		if err != nil {
			return nil, err
		}
		grid := make([]float32, t.Geo.Points())
		for _, a := range t.Atoms {
			Accumulate(t.Geo, a, grid)
		}
		return serial.Marshal(serial.F32s(), grid), nil
	})
}

// Eden runs the Eden implementation: one task per process (atom blocks),
// two-level distribution, master-side grid summation.
func Eden(m *eden.Master, in *Input) ([]float32, error) {
	blocks := domain.BlockPartition(len(in.Atoms), m.Processes())
	tasks := make([]edenTask, 0, len(blocks))
	for _, r := range blocks {
		tasks = append(tasks, edenTask{Atoms: in.Atoms[r.Lo:r.Hi], Geo: in.Geo})
	}
	zero := make([]float32, in.Geo.Points())
	return eden.ParMapReduceT(m, "cutcp.eden", edenTaskCodec(), serial.F32s(), tasks,
		zero, func(a, b []float32) []float32 { array.AddInto(a, b); return a })
}

// ---- C+MPI+OpenMP reference ----

// Ref is the hand-partitioned reference: atoms scattered, geometry
// broadcast, per-thread private grids merged per node, grids tree-reduced
// to the root.
func Ref(cfg cluster.Config, in *Input) ([]float32, error) {
	var out []float32
	err := mpi.Run(transport.Config{Ranks: cfg.Nodes}, func(c *mpi.Comm) error {
		pool := sched.NewPool(cfg.CoresPerNode)
		defer pool.Close()

		var parts [][]Atom
		if c.Rank() == 0 {
			parts = make([][]Atom, c.Size())
			for i, r := range domain.BlockPartition(len(in.Atoms), c.Size()) {
				parts[i] = in.Atoms[r.Lo:r.Hi]
			}
		}
		mine, err := mpi.ScatterT(c, 0, atomsCodec(), parts)
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
