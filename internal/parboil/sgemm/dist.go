package sgemm

import (
	"fmt"

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

// blockSlice is one worker's input: the rows of A spanning its block's
// vertical extent and the rows of Bᵀ spanning its horizontal extent — the
// data decomposition outerproduct(rows(A), rows(Bᵀ)) induces (paper §2).
type blockSlice struct {
	ARows, BTRows array.Matrix[float32]
	Alpha         float32
}

func blockCodec() serial.Codec[blockSlice] {
	mc := serial.Matrix[float32]()
	return serial.Funcs[blockSlice]{
		Enc: func(w *serial.Writer, v blockSlice) {
			mc.Encode(w, v.ARows)
			mc.Encode(w, v.BTRows)
			w.F32(v.Alpha)
		},
		Dec: func(r *serial.Reader) blockSlice {
			return blockSlice{ARows: mc.Decode(r), BTRows: mc.Decode(r), Alpha: r.F32()}
		},
	}
}

// blockMul computes one output block with the paper's two-line Triolet
// program: outerproduct of row iterators, dot product per element,
// materialized with the (optionally threaded) block builder.
func blockMul(pool *sched.Pool, s *blockSlice) array.Matrix[float32] {
	zipped := iter.OuterProduct(iter.MatrixRows(s.ARows), iter.MatrixRows(s.BTRows))
	alpha := s.Alpha
	prods := iter.Map2(func(p iter.Pair[[]float32, []float32]) float32 {
		// dot(u, v): the fused sequential inner loop over two contiguous
		// row views.
		return RowDot(alpha, p.Fst, p.Snd)
	}, zipped)
	return core.Build2Local(pool, iter.LocalPar2(prods))
}

// blockMulImperative is the unboxed-array loop nest the hand-optimized
// Eden port and the C reference use for one block.
func blockMulImperative(s blockSlice) array.Matrix[float32] {
	out := array.NewMatrix[float32](s.ARows.H, s.BTRows.H)
	for i := 0; i < out.H; i++ {
		ai := s.ARows.Row(i)
		ci := out.Row(i)
		for j := 0; j < out.W; j++ {
			ci[j] = RowDot(s.Alpha, ai, s.BTRows.Row(j))
		}
	}
	return out
}

// SeqTriolet runs the Triolet iterator pipeline on one thread — the
// "Triolet" bar of paper Fig. 3.
func SeqTriolet(in *Input) array.Matrix[float32] {
	bt := TransposeLocal(nil, in.B)
	return blockMul(nil, &blockSlice{ARows: in.A, BTRows: bt, Alpha: in.Alpha})
}

// SeqEden runs the Eden-style sequential kernel: unboxed arrays with
// imperative loops (the paper's optimized Eden style, §4.1), so it matches
// C closely in sequential execution.
func SeqEden(in *Input) array.Matrix[float32] {
	bt := TransposeLocal(nil, in.B)
	return blockMulImperative(blockSlice{ARows: in.A, BTRows: bt, Alpha: in.Alpha})
}

// ---- Triolet ----

var trioletOp = core.NewBuild2D(
	"sgemm.triolet",
	blockCodec(),
	serial.Unit(),
	serial.Matrix[float32](),
	func(n *cluster.Node, s blockSlice, _ struct{}) (array.Matrix[float32], error) {
		return blockMul(n.Pool, &s), nil
	},
)

// TransposeLocal transposes m on the master's thread pool — the paper
// parallelizes transposition over shared memory on a single node (§4.3)
// because it does too little work per byte to ship across the network.
func TransposeLocal(pool *sched.Pool, m array.Matrix[float32]) array.Matrix[float32] {
	out := array.NewMatrix[float32](m.W, m.H)
	if pool == nil {
		array.TransposeInto(out, m, domain.Range{Lo: 0, Hi: m.W})
		return out
	}
	pool.ParallelFor(m.W, 16, func(_, lo, hi int) {
		array.TransposeInto(out, m, domain.Range{Lo: lo, Hi: hi})
	})
	return out
}

// Triolet runs the paper's Triolet implementation: shared-memory parallel
// transpose on the master node, then the distributed 2-D block product.
func Triolet(s *cluster.Session, in *Input) (array.Matrix[float32], error) {
	a, bt := in.A, TransposeLocal(s.Node().Pool, in.B)
	src := core.FuncSource2[blockSlice]{
		D: domain.NewDim2(in.A.H, in.B.W),
		SliceFn: func(r domain.Rect) blockSlice {
			return blockSlice{
				ARows:  a.RowBand(r.Rows),
				BTRows: bt.RowBand(r.Cols),
				Alpha:  in.Alpha,
			}
		},
	}
	return trioletOp.Run(s, src, struct{}{})
}

// ---- Eden ----

// The Eden port also uses the 2-D decomposition (the paper wrote 120+
// lines for it in each language), but transposition is sequential on the
// master — Eden cannot use shared memory, and transposing over distributed
// memory does too little work to pay for the copies (§4.3: at 128 cores
// transposition is 35 % of Eden's execution time). Whole blocks of A and
// Bᵀ travel as single messages, which overflows Eden's bounded message
// buffer on large inputs (the Fig. 5 failure at ≥2 nodes).
var edenProc = eden.Declare("sgemm.eden", blockCodec(), serial.Matrix[float32](), blockMulImperative)

// Eden runs the Eden implementation. With a bounded message buffer
// configured (eden.Config.MaxMessageBytes) and realistic matrix sizes, it
// fails exactly as in the paper.
func Eden(m *eden.Master, in *Input) (array.Matrix[float32], error) {
	bt := TransposeLocal(nil, in.B) // sequential: no shared memory in Eden
	dom := domain.NewDim2(in.A.H, in.B.W)
	rects := dom.PowerGrid(m.Config().Processes)
	tasks := make([]blockSlice, len(rects))
	for i, r := range rects {
		tasks[i] = blockSlice{
			ARows:  in.A.RowBand(r.Rows).Clone(),
			BTRows: bt.RowBand(r.Cols).Clone(),
			Alpha:  in.Alpha,
		}
	}
	blocks, err := edenProc.TwoLevelParMap(m, tasks)
	if err != nil {
		return array.Matrix[float32]{}, err
	}
	out := array.NewMatrix[float32](dom.H, dom.W)
	for i, b := range blocks {
		out.CopyRect(rects[i], b)
	}
	return out, nil
}

// ---- C+MPI+OpenMP reference ----

// Ref is the hand-partitioned reference: parallel transpose on rank 0's
// cores, explicit block scatter, OpenMP-style block compute, block gather.
func Ref(cfg cluster.Config, in *Input) (out array.Matrix[float32], err error) {
	cores := cfg.CoresPerNode
	err = mpi.Run(transport.Config{Ranks: cfg.Nodes}, func(c *mpi.Comm) error {
		pool := sched.NewPool(cores)
		defer pool.Close()

		var parts []blockSlice
		var rects []domain.Rect
		var dom domain.Dim2
		if c.Rank() == 0 {
			bt := TransposeLocal(pool, in.B)
			dom = domain.NewDim2(in.A.H, in.B.W)
			py, px := dom.GridShape(c.Size())
			rects = dom.GridPartition(py, px)
			parts = make([]blockSlice, len(rects))
			for i, r := range rects {
				parts[i] = blockSlice{
					ARows:  in.A.RowBand(r.Rows).Clone(),
					BTRows: bt.RowBand(r.Cols).Clone(),
					Alpha:  in.Alpha,
				}
			}
		}
		mine, err := mpi.ScatterT(c, 0, blockCodec(), parts)
		if err != nil {
			return err
		}
		// OpenMP-style: parallel for over the block's rows, raw loops.
		block := array.NewMatrix[float32](mine.ARows.H, mine.BTRows.H)
		pool.ParallelFor(block.H, 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ai := mine.ARows.Row(i)
				ci := block.Row(i)
				for j := 0; j < block.W; j++ {
					ci[j] = RowDot(mine.Alpha, ai, mine.BTRows.Row(j))
				}
			}
		})
		blocks, err := mpi.GatherT(c, 0, serial.Matrix[float32](), block)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = array.NewMatrix[float32](dom.H, dom.W)
			for i, b := range blocks {
				if b.H != rects[i].Rows.Len() || b.W != rects[i].Cols.Len() {
					return fmt.Errorf("sgemm: rank %d returned %dx%d block for %v", i, b.H, b.W, rects[i])
				}
				out.CopyRect(rects[i], b)
			}
		}
		return nil
	})
	return out, err
}
