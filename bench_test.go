package triolet

// Benchmarks regenerating the paper's evaluation, one group per table or
// figure, plus ablations for the design choices DESIGN.md calls out. The
// Fig. 3 benches measure the real sequential kernels; the Fig. 4/5/7/8
// benches execute the real distributed implementations on a small virtual
// cluster (this machine cannot hold 128 cores — the paper-scale scaling
// curves come from the calibrated model printed by cmd/triolet-bench and
// asserted in internal/perfmodel's tests).

import (
	"testing"
	"time"

	"triolet/internal/cluster"
	"triolet/internal/core"
	"triolet/internal/domain"
	"triolet/internal/eden"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/parboil/cutcp"
	"triolet/internal/parboil/mriq"
	"triolet/internal/parboil/sgemm"
	"triolet/internal/parboil/tpacf"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

var benchCluster = cluster.Config{Nodes: 4, CoresPerNode: 2}
var benchEden = eden.Config{Processes: 8, ProcsPerNode: 2}

// ------------------------------------------------------------ Figure 1

// BenchmarkFig1Encodings times the same reduction through each virtual
// data structure encoding, substantiating the feature matrix's cost notes
// (in particular that stepper-based nesting is the slow row).
func BenchmarkFig1Encodings(b *testing.B) {
	xs := make([]int64, 1<<14)
	for i := range xs {
		xs[i] = int64(i)
	}
	b.Run("indexer", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = iter.FoldIdx(iter.IdxOf(xs), 0, func(a, v int64) int64 { return a + v })
		}
	})
	b.Run("stepper", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = iter.FoldStep(iter.StepOf(xs), 0, func(a, v int64) int64 { return a + v })
		}
	})
	b.Run("fold", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = iter.ReduceFold(iter.FoldOf(xs), 0, func(a, v int64) int64 { return a + v })
		}
	})
	b.Run("collector", func(b *testing.B) {
		for b.Loop() {
			var acc int64
			iter.IdxToColl(iter.IdxOf(xs))(func(v int64) { acc += v })
			sinkI64 = acc
		}
	})
}

var (
	sinkI64 int64
	sinkF32 float32
	sinkF64 float64
)

// ------------------------------------------------------------ Figure 3

// BenchmarkFig3Sequential measures the sequential kernels whose unit costs
// scale to the paper's Fig. 3 bars (CPU = C-style, Eden-style, Triolet
// iterator pipeline), for all four benchmarks.
func BenchmarkFig3Sequential(b *testing.B) {
	mriqIn := mriq.Gen(512, 512, 1)
	sgemmIn := sgemm.Gen(192, 192, 192, 1)
	tpacfIn := tpacf.Gen(192, 4, 20, 1)
	cutcpIn := cutcp.Gen(256, domain.Dim3{D: 20, H: 20, W: 20}, 0.5, 2.0, 1)

	b.Run("mriq/cpu", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = mriq.Seq(mriqIn)[0].Re
		}
	})
	b.Run("mriq/eden", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = mriq.SeqEden(mriqIn)[0].Re
		}
	})
	b.Run("mriq/triolet", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = mriq.SeqTriolet(mriqIn)[0].Re
		}
	})
	b.Run("sgemm/cpu", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = sgemm.Seq(sgemmIn).Data[0]
		}
	})
	b.Run("sgemm/eden", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = sgemm.SeqEden(sgemmIn).Data[0]
		}
	})
	b.Run("sgemm/triolet", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = sgemm.SeqTriolet(sgemmIn).Data[0]
		}
	})
	b.Run("tpacf/cpu", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = tpacf.Seq(tpacfIn).DD[0]
		}
	})
	b.Run("tpacf/eden", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = tpacf.SeqEden(tpacfIn).DD[0]
		}
	})
	b.Run("tpacf/triolet", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = tpacf.SeqTriolet(tpacfIn).DD[0]
		}
	})
	b.Run("cutcp/cpu", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = cutcp.Seq(cutcpIn)[0]
		}
	})
	b.Run("cutcp/eden", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = cutcp.SeqEden(cutcpIn)[0]
		}
	})
	b.Run("cutcp/triolet", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = cutcp.SeqTriolet(cutcpIn)[0]
		}
	})
}

// ------------------------------------------------- Figures 4, 5, 7, 8

// BenchmarkFig4MRIQ executes the real distributed mri-q implementations on
// a 4-node × 2-core virtual cluster.
func BenchmarkFig4MRIQ(b *testing.B) {
	in := mriq.Gen(2048, 256, 2)
	b.Run("triolet", func(b *testing.B) {
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				q, err := mriq.Triolet(s, in)
				sinkF32 = q[0].Re
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eden", func(b *testing.B) {
		for b.Loop() {
			_, err := eden.Run(benchEden, func(m *eden.Master) error {
				q, err := mriq.Eden(m, in)
				sinkF32 = q[0].Re
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refc", func(b *testing.B) {
		for b.Loop() {
			q, err := mriq.Ref(benchCluster, in)
			if err != nil {
				b.Fatal(err)
			}
			sinkF32 = q[0].Re
		}
	})
}

// BenchmarkFig5SGEMM executes the real distributed sgemm implementations.
func BenchmarkFig5SGEMM(b *testing.B) {
	in := sgemm.Gen(160, 160, 160, 3)
	b.Run("triolet", func(b *testing.B) {
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				c, err := sgemm.Triolet(s, in)
				sinkF32 = c.Data[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eden", func(b *testing.B) {
		for b.Loop() {
			_, err := eden.Run(benchEden, func(m *eden.Master) error {
				c, err := sgemm.Eden(m, in)
				sinkF32 = c.Data[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refc", func(b *testing.B) {
		for b.Loop() {
			c, err := sgemm.Ref(benchCluster, in)
			if err != nil {
				b.Fatal(err)
			}
			sinkF32 = c.Data[0]
		}
	})
}

// BenchmarkFig7TPACF executes the real distributed tpacf implementations.
func BenchmarkFig7TPACF(b *testing.B) {
	in := tpacf.Gen(160, 8, 20, 4)
	b.Run("triolet", func(b *testing.B) {
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				r, err := tpacf.Triolet(s, in)
				sinkI64 = r.RRS[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eden", func(b *testing.B) {
		for b.Loop() {
			_, err := eden.Run(benchEden, func(m *eden.Master) error {
				r, err := tpacf.Eden(m, in)
				sinkI64 = r.RRS[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refc", func(b *testing.B) {
		for b.Loop() {
			r, err := tpacf.Ref(benchCluster, in)
			if err != nil {
				b.Fatal(err)
			}
			sinkI64 = r.RRS[0]
		}
	})
}

// BenchmarkFig8CUTCP executes the real distributed cutcp implementations.
func BenchmarkFig8CUTCP(b *testing.B) {
	in := cutcp.Gen(512, domain.Dim3{D: 16, H: 16, W: 16}, 0.5, 2.0, 5)
	b.Run("triolet", func(b *testing.B) {
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				g, err := cutcp.Triolet(s, in)
				sinkF32 = g[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eden", func(b *testing.B) {
		for b.Loop() {
			_, err := eden.Run(benchEden, func(m *eden.Master) error {
				g, err := cutcp.Eden(m, in)
				sinkF32 = g[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refc", func(b *testing.B) {
		for b.Loop() {
			g, err := cutcp.Ref(benchCluster, in)
			if err != nil {
				b.Fatal(err)
			}
			sinkF32 = g[0]
		}
	})
}

// ------------------------------------------------------------ Ablations

// BenchmarkAblationNestedLoops compares nested traversal through the
// hybrid iterator (indexer-of-steppers), pure stepper nesting, and the
// hand-written loop nest — the paper's §3.1 claim that stepper nesting is
// 2–5× slower while the hybrid stays near the loop nest.
func BenchmarkAblationNestedLoops(b *testing.B) {
	const n = 512
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i % 37
	}
	b.Run("hybrid-idxnest", func(b *testing.B) {
		for b.Loop() {
			it := iter.ConcatMap(func(x int) iter.Iter[int64] {
				return iter.IdxFlat(iter.Idx[int64]{N: x, At: func(j int) int64 { return int64(j) }})
			}, iter.FromSlice(xs))
			sinkI64 = iter.Sum(it)
		}
	})
	b.Run("stepper-nest", func(b *testing.B) {
		for b.Loop() {
			s := iter.ConcatMapStep(func(x int) iter.Step[int64] {
				return iter.IdxToStep(iter.Idx[int64]{N: x, At: func(j int) int64 { return int64(j) }})
			}, iter.StepOf(xs))
			sinkI64 = iter.FoldStep(s, 0, func(a, v int64) int64 { return a + v })
		}
	})
	b.Run("loop-nest", func(b *testing.B) {
		for b.Loop() {
			var acc int64
			for _, x := range xs {
				for j := 0; j < x; j++ {
					acc += int64(j)
				}
			}
			sinkI64 = acc
		}
	})
}

// BenchmarkAblationSlabVsReplicated compares the paper's cutcp (every node
// computes a full private grid, grids tree-reduced) against the slab-
// decomposed extension (grid partitioned, atoms routed, no reduction) on
// the real virtual cluster.
func BenchmarkAblationSlabVsReplicated(b *testing.B) {
	in := cutcp.Gen(1024, domain.Dim3{D: 24, H: 24, W: 24}, 0.5, 2.0, 7)
	b.Run("replicated-grid", func(b *testing.B) {
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				g, err := cutcp.Triolet(s, in)
				sinkF32 = g[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("slab-decomposed", func(b *testing.B) {
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				g, err := cutcp.TrioletSlab(s, in)
				sinkF32 = g[0]
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBoxedList compares Eden's boxed cons-list traversal
// with the unboxed slice the high-performance style uses — the order-of-
// magnitude gap the paper's §1 attributes to idiomatic Eden.
func BenchmarkAblationBoxedList(b *testing.B) {
	xs := make([]float64, 1<<14)
	for i := range xs {
		xs[i] = float64(i)
	}
	boxed := eden.FromSlice(xs)
	b.Run("boxed-list", func(b *testing.B) {
		for b.Loop() {
			sinkF64 = eden.Foldl(
				eden.Map(func(x float64) float64 { return x * 1.0001 }, boxed),
				0, func(a, v float64) float64 { return a + v })
		}
	})
	b.Run("unboxed-slice", func(b *testing.B) {
		for b.Loop() {
			var acc float64
			for _, x := range xs {
				acc += x * 1.0001
			}
			sinkF64 = acc
		}
	})
}

// BenchmarkAblationIdiomaticEden measures the paper's §1 claim on real
// kernels: the naive list-comprehension style (boxed cons lists for every
// intermediate value) against the optimized unboxed-array style, for the
// mri-q map-reduce and the cutcp float histogram.
func BenchmarkAblationIdiomaticEden(b *testing.B) {
	mriqIn := mriq.Gen(128, 128, 6)
	cutcpIn := cutcp.Gen(128, domain.Dim3{D: 16, H: 16, W: 16}, 0.5, 2.0, 6)
	b.Run("mriq/optimized", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = mriq.SeqEden(mriqIn)[0].Re
		}
	})
	b.Run("mriq/idiomatic-lists", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = mriq.SeqEdenIdiomatic(mriqIn)[0].Re
		}
	})
	b.Run("cutcp/optimized", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = cutcp.SeqEden(cutcpIn)[0]
		}
	})
	b.Run("cutcp/idiomatic-lists", func(b *testing.B) {
		for b.Loop() {
			sinkF32 = cutcp.SeqEdenIdiomatic(cutcpIn)[0]
		}
	})
	tpacfIn := tpacf.Gen(96, 3, 16, 6)
	b.Run("tpacf/optimized", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = tpacf.SeqEden(tpacfIn).DD[0]
		}
	})
	b.Run("tpacf/idiomatic-lists", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = tpacf.SeqEdenIdiomatic(tpacfIn).DD[0]
		}
	})
}

// BenchmarkAblationScanVsFusion compares the conventional multi-pass
// filter implementation (count, prefix-scan offsets, packed write, then
// sum — paper §3.1's "usual solution") against the fused hybrid pipeline
// on sum-of-filter-of-map.
func BenchmarkAblationScanVsFusion(b *testing.B) {
	pool := sched.NewPool(2)
	defer pool.Close()
	xs := make([]int32, 1<<16)
	for i := range xs {
		xs[i] = int32(i % 1000)
	}
	f := func(x int32) int64 { return int64(x) * 7 }
	pred := func(v int64) bool { return v%3 == 0 }
	b.Run("fused-hybrid", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = core.FilterSumFused(pool, xs, f, pred, 2048)
		}
	})
	b.Run("scan-two-pass", func(b *testing.B) {
		for b.Loop() {
			sinkI64 = core.FilterSumTwoPass(pool, xs, f, pred, 2048)
		}
	})
}

// sliceVsWholeOp ships either a slice per node or the whole array per node,
// isolating the value of separating data distribution from work
// distribution (paper §3.5).
var sliceVsWholeOp = core.NewMapReduce(
	"bench.slicevswhole",
	serial.F64s(),
	serial.Unit(),
	serial.F64C(),
	func(n *cluster.Node, xs []float64, _ struct{}) (float64, error) {
		var acc float64
		for _, x := range xs {
			acc += x
		}
		return acc, nil
	},
	func(a, b float64) float64 { return a + b },
)

// BenchmarkAblationSlicing compares sliced distribution against whole-
// input-per-node distribution at identical compute cost.
func BenchmarkAblationSlicing(b *testing.B) {
	xs := make([]float64, 1<<18)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.Run("sliced", func(b *testing.B) {
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				v, err := sliceVsWholeOp.Run(s, core.SliceSource(xs), struct{}{})
				sinkF64 = v
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole-copy", func(b *testing.B) {
		// Every node receives the full array and reduces only its share's
		// worth of it — Eden-style replication.
		src := core.FuncSource[[]float64]{
			N:       len(xs),
			SliceFn: func(domain.Range) []float64 { return xs },
		}
		for b.Loop() {
			_, err := cluster.Run(benchCluster, func(s *cluster.Session) error {
				v, err := sliceVsWholeOp.Run(s, src, struct{}{})
				sinkF64 = v
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFlatVsTwoLevel compares Eden's flat skeleton (every
// process talks to the master) with the paper's two-level rewrite.
func BenchmarkAblationFlatVsTwoLevel(b *testing.B) {
	payload := make([]float64, 1<<12)
	tasks := make([][]float64, 64)
	for i := range tasks {
		tasks[i] = payload
	}
	b.Run("flat", func(b *testing.B) {
		for b.Loop() {
			_, err := eden.Run(eden.Config{Processes: 16, ProcsPerNode: 4}, func(m *eden.Master) error {
				_, err := benchSumvec.ParMap(m, tasks)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-level", func(b *testing.B) {
		for b.Loop() {
			_, err := eden.Run(eden.Config{Processes: 16, ProcsPerNode: 4}, func(m *eden.Master) error {
				_, err := benchSumvec.TwoLevelParMap(m, tasks)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFusedReductions measures the two-source reduction pipelines the
// fused kernels in iter/fuse.go accelerate — zipWith-sum and the
// Pair-routed dot product — against the hand-written loop they chase. The
// remaining gap is the one indirect user-function call per element that
// opaque closures cost in Go (see DESIGN.md §11); the bench gate holds the
// ratio, this group makes the absolute numbers visible in CI logs.
func BenchmarkFusedReductions(b *testing.B) {
	n := 1 << 15
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%911) * 0.5
		ys[i] = float64(i%613) * 0.25
	}
	b.Run("zipwith-sum", func(b *testing.B) {
		it := iter.ZipWith(func(x, y float64) float64 { return x * y },
			iter.FromSlice(xs), iter.FromSlice(ys))
		for b.Loop() {
			sinkF64 = iter.Sum(it)
		}
	})
	b.Run("dot-product", func(b *testing.B) {
		it := iter.Map(func(p iter.Pair[float64, float64]) float64 { return p.Fst * p.Snd },
			iter.Zip(iter.FromSlice(xs), iter.FromSlice(ys)))
		for b.Loop() {
			sinkF64 = iter.Sum(it)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for b.Loop() {
			var acc float64
			for i := range xs {
				acc += xs[i] * ys[i]
			}
			sinkF64 = acc
		}
	})
}

// BenchmarkFarmFrameCoalescing measures the farm control-plane wire path —
// bursts of worker heartbeats punctuated by small result sends — with the
// reliable layer's coalescing on and off. Coalescing batches the beats
// into one CRC-framed container (and drops their acks entirely), roughly
// halving bytes and cutting messages ~6x; internal/mpi's
// TestCoalescingSavesFarmFrameBytes asserts the byte reduction, this bench
// tracks the time cost per batch.
func BenchmarkFarmFrameCoalescing(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		f := transport.New(transport.Config{Ranks: 2})
		defer f.Close()
		cfg := mpi.ReliableConfig{
			AckTimeout:      time.Second,
			CoalesceLimit:   8,
			DisableCoalesce: disable,
		}
		worker := mpi.NewReliableComm(f, 0, cfg)
		master := mpi.NewReliableComm(f, 1, cfg)
		result := make([]byte, 24)
		stop := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				for i := 0; i < 8; i++ {
					if err := worker.SendBeat(1, 7, nil); err != nil {
						errc <- err
						return
					}
				}
				if err := worker.Send(1, 9, result); err != nil {
					errc <- err
					return
				}
			}
		}()
		for b.Loop() {
			if _, err := master.Recv(0, 9); err != nil {
				b.Fatal(err)
			}
			for {
				if _, ok, err := master.TryRecv(0, 7); err != nil {
					b.Fatal(err)
				} else if !ok {
					break
				}
			}
		}
		close(stop)
		// The worker may be blocked in a Send; keep pumping acks until it
		// observes stop and exits.
		for {
			select {
			case err := <-errc:
				if err != nil {
					b.Fatal(err)
				}
				return
			default:
				if _, _, err := master.TryRecv(0, 9); err != nil {
					b.Fatal(err)
				}
				if _, _, err := master.TryRecv(0, 7); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("coalesced", func(b *testing.B) { run(b, false) })
	b.Run("legacy", func(b *testing.B) { run(b, true) })
}

var benchSumvec = eden.Declare("bench.sumvec", serial.F64s(), serial.F64C(), func(xs []float64) float64 {
	var acc float64
	for _, x := range xs {
		acc += x
	}
	return acc
})
