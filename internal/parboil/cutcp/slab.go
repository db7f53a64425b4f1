package cutcp

import (
	"fmt"

	"triolet/internal/cluster"
	"triolet/internal/core"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/serial"
)

// Slab-decomposed cutcp: an extension beyond the paper's implementation.
//
// The paper's cutcp saturates because every node computes a private copy
// of the whole output grid and full grids are summed up a reduction tree
// (§4.5: "the overhead of summing the large output arrays dominates
// execution time"). The alternative implemented here partitions the GRID
// instead of (only) the atoms: the domain is split into Z-slabs, one per
// node, and each atom is routed to every slab its cutoff box intersects
// (atoms near a boundary are sent to both neighbours). Each node then owns
// its slab exclusively — no cross-node grid summation at all; the gather
// returns disjoint slabs that concatenate into the result.
//
// The trade: atoms near slab boundaries are processed twice (bounded by
// cutoff/slabDepth), in exchange for reducing the collective traffic from
// nodes×grid to exactly one grid. TestSlabMatchesSeq verifies equivalence;
// TestSlabReducesTraffic and BenchmarkAblationSlabVsReplicated quantify
// the win the paper's analysis predicts.

// atomWireBytes is one atom's encoded size in atomsCodec (4 × F32), used to
// attribute duplicated boundary atoms as halo bytes.
const atomWireBytes = 16

// slabTask is one node's input: the atoms relevant to its slab plus the
// slab's Z-extent within the full geometry.
type slabTask struct {
	Atoms    []Atom
	Geo      Geometry
	ZLo, ZHi int
}

func slabTaskCodec() serial.Codec[slabTask] {
	gc := geoCodec()
	return serial.Funcs[slabTask]{
		Enc: func(w *serial.Writer, v slabTask) {
			atomsCodec.Encode(w, v.Atoms)
			gc.Encode(w, v.Geo)
			w.Int(v.ZLo)
			w.Int(v.ZHi)
		},
		Dec: func(r *serial.Reader) slabTask {
			return slabTask{Atoms: atomsCodec.Decode(r), Geo: gc.Decode(r), ZLo: r.Int(), ZHi: r.Int()}
		},
	}
}

// slabGrid computes one slab's potentials: the same fused iterator
// pipeline as the replicated-grid version, with each atom's bounding box
// clipped to the slab and bins rebased to slab-local indices.
func slabGrid(n *cluster.Node, t slabTask) []float32 {
	g := t.Geo
	points := (t.ZHi - t.ZLo) * g.Dim.H * g.Dim.W
	it := iter.LocalPar(atomUpdates(g, t.Atoms, domain.Range{Lo: t.ZLo, Hi: t.ZHi}))
	return core.WeightedHistogramLocal(n.Pool, points, it, atomGrain)
}

// slabOp: the kernel computes its slab and the gather concatenates slabs
// in rank order (slabs are contiguous along Z).
var slabOp = core.NewFlatMap(
	"cutcp.slab",
	slabTaskCodec(),
	serial.Unit(),
	serial.F32s(),
	func(n *cluster.Node, t slabTask, _ struct{}) ([]float32, error) {
		return slabGrid(n, t), nil
	},
)

// TrioletSlab runs the slab-decomposed extension. It uses the FlatMap
// skeleton with a one-task-per-node source whose "slice" carries the
// node's slab bounds and the routed atoms.
func TrioletSlab(s *cluster.Session, in *Input) ([]float32, error) {
	nodes := s.Node().Nodes()
	g := in.Geo
	slabs := domain.BlockPartition(g.Dim.D, nodes)

	// Route each atom to every slab its cutoff box intersects. Atoms near a
	// slab boundary land in multiple slabs: those duplicate copies are the
	// decomposition's ghost data, and their wire size is attributed as halo
	// traffic so the wire pins (TestSlabHaloAttribution) see the replication
	// cost instead of it hiding inside ordinary task bytes.
	routed := make([][]Atom, nodes)
	var dupBytes int64
	for _, a := range in.Atoms {
		zr, _, _ := AtomBox(g, a)
		hits := 0
		for sIdx, slab := range slabs {
			if !slab.Intersect(zr).Empty() {
				routed[sIdx] = append(routed[sIdx], a)
				hits++
			}
		}
		if hits > 1 {
			dupBytes += int64(hits-1) * atomWireBytes
		}
	}
	s.Fabric().AddHaloBytes(dupBytes)

	src := core.FuncSource[slabTask]{
		N: nodes,
		SliceFn: func(r domain.Range) slabTask {
			// One task per node: r is a single slab index.
			if r.Len() != 1 {
				panic(fmt.Sprintf("cutcp: slab source sliced with %v", r))
			}
			return slabTask{
				Atoms: routed[r.Lo],
				Geo:   g,
				ZLo:   slabs[r.Lo].Lo,
				ZHi:   slabs[r.Lo].Hi,
			}
		},
	}
	out, err := slabOp.Run(s, src, struct{}{})
	if err != nil {
		return nil, err
	}
	if len(out) != g.Points() {
		return nil, fmt.Errorf("cutcp: slab gather produced %d points, want %d", len(out), g.Points())
	}
	return out, nil
}
