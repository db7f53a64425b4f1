package tpacf

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

// pointsCodec ships a point set as one block copy: Point is a packed
// record of three float32 words.
var pointsCodec = serial.Records[Point, float32]()

func setsCodec() serial.Codec[[][]Point] { return serial.SliceOf(pointsCodec) }

// obsAux is the broadcast auxiliary input: the observed set and binning.
type obsAux struct {
	Obs  []Point
	Binb []float32
}

func obsAuxCodec() serial.Codec[obsAux] {
	return serial.Funcs[obsAux]{
		Enc: func(w *serial.Writer, v obsAux) {
			pointsCodec.Encode(w, v.Obs)
			w.F32Slice(v.Binb)
		},
		Dec: func(r *serial.Reader) obsAux {
			return obsAux{Obs: pointsCodec.Decode(r), Binb: r.F32Slice()}
		},
	}
}

// ---- Triolet (paper Fig. 6, transcribed) ----

// selfPairs builds the triangular pair iterator of one set — Fig. 6 lines
// 15–18: zip the set with its indices, then for each (i, u) pair u with
// every later element.
func selfPairs(set []Point) iter.Iter[iter.Pair[Point, Point]] {
	indexed := iter.Zip(iter.Range(len(set)), iter.FromSlice(set))
	return iter.ConcatMap(func(p iter.Pair[int, Point]) iter.Iter[iter.Pair[Point, Point]] {
		u := p.Snd
		return iter.Map(func(v Point) iter.Pair[Point, Point] {
			return iter.Pair[Point, Point]{Fst: u, Snd: v}
		}, iter.FromSlice(set[p.Fst+1:]))
	}, indexed)
}

// crossPairs builds the full rectangular pair iterator of obs × set.
func crossPairs(obs, set []Point) iter.Iter[iter.Pair[Point, Point]] {
	return iter.ConcatMap(func(u Point) iter.Iter[iter.Pair[Point, Point]] {
		return iter.Map(func(v Point) iter.Pair[Point, Point] {
			return iter.Pair[Point, Point]{Fst: u, Snd: v}
		}, iter.FromSlice(set))
	}, iter.FromSlice(obs))
}

// correlation maps score over the pairs and collects a histogram — Fig. 6
// lines 1–4. The pipeline fuses: no pair list is ever materialized.
func correlation(pool *sched.Pool, bins int, binb []float32, pairs iter.Iter[iter.Pair[Point, Point]]) []int64 {
	scores := iter.Map(func(p iter.Pair[Point, Point]) int {
		return Score(binb, p.Fst, p.Snd)
	}, pairs)
	return core.HistogramLocal(pool, bins, scores, 1)
}

// selfScores and crossScores are the post-fusion forms of
// correlation∘(self|cross)Pairs: score inlined into the pair generators so
// the intermediate pair values disappear — the simplification Triolet's
// optimizer performs on Fig. 6's code, here as stream nests (tpacf_test.go
// checks the fused and literal forms agree bin-for-bin). The hot paths use
// them.
func selfScores(binb []float32, set []Point) iter.Iter[int] {
	return iter.StreamNest(iter.IdxRange(len(set)), func(i int) int { return len(set) - i - 1 },
		func(i int, dst []int, base int) int {
			u := set[i]
			for j, v := range set[i+1+base : i+1+base+len(dst)] {
				dst[j] = Score(binb, u, v)
			}
			return len(dst)
		})
}

func crossScores(binb []float32, obs, set []Point) iter.Iter[int] {
	return iter.StreamNest(iter.IdxOf(obs), func(Point) int { return len(set) },
		func(u Point, dst []int, base int) int {
			for j, v := range set[base : base+len(dst)] {
				dst[j] = Score(binb, u, v)
			}
			return len(dst)
		})
}

// SeqTriolet runs the full tpacf computation as single-threaded Triolet
// iterator pipelines — the "Triolet" bar of paper Fig. 3.
func SeqTriolet(in *Input) Result {
	bins := in.Bins()
	dd := iter.Histogram(bins, selfScores(in.Binb, in.Obs))
	drs := iter.Histogram(bins, iter.ConcatMap(func(set []Point) iter.Iter[int] {
		return crossScores(in.Binb, in.Obs, set)
	}, iter.FromSlice(in.Rands)))
	rrs := iter.Histogram(bins, iter.ConcatMap(func(set []Point) iter.Iter[int] {
		return selfScores(in.Binb, set)
	}, iter.FromSlice(in.Rands)))
	return Result{DD: dd, DRS: drs, RRS: rrs}
}

// SeqEden runs the Eden-style sequential kernel. The paper's Eden port
// rewrote tpacf's nested histogram loops imperatively over unboxed arrays
// (§4.1), so the Eden sequential kernel is the same loop nest as C.
func SeqEden(in *Input) Result {
	return Seq(in)
}

// SeqEdenIdiomatic enumerates the triangular pairs through boxed cons
// lists — the idiomatic Haskell list-comprehension style before the
// paper's imperative rewrite (§4.1 rewrote exactly these nested loops
// "to use imperative loops and mutable arrays" because stepper-style list
// traversal ran 2–5× slower, §3.1). Histogram counts are identical; only
// the traversal representation differs. BenchmarkAblationIdiomaticEden
// measures the gap.
func SeqEdenIdiomatic(in *Input) Result {
	bins := in.Bins()
	res := Result{
		DD:  make([]int64, bins),
		DRS: make([]int64, bins),
		RRS: make([]int64, bins),
	}
	// pairs = [(u, v) | (i, u) <- zip [0..] set, v <- drop (i+1) set]
	selfList := func(set []Point, hist []int64) {
		idx := eden.FromSlice(seqIdx(len(set)))
		scores := eden.ConcatMap(func(i int) *eden.Cell[int] {
			u := set[i]
			rest := eden.FromSlice(set[i+1:])
			return eden.Map(func(v Point) int { return Score(in.Binb, u, v) }, rest)
		}, idx)
		eden.Foldl(scores, struct{}{}, func(s struct{}, b int) struct{} {
			hist[b]++
			return s
		})
	}
	crossList := func(a, b []Point, hist []int64) {
		scores := eden.ConcatMap(func(u Point) *eden.Cell[int] {
			return eden.Map(func(v Point) int { return Score(in.Binb, u, v) }, eden.FromSlice(b))
		}, eden.FromSlice(a))
		eden.Foldl(scores, struct{}{}, func(s struct{}, sc int) struct{} {
			hist[sc]++
			return s
		})
	}
	selfList(in.Obs, res.DD)
	for _, r := range in.Rands {
		crossList(in.Obs, r, res.DRS)
		selfList(r, res.RRS)
	}
	return res
}

func seqIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// histPair bundles the two per-set histograms of the random-set loops.
type histPair struct {
	DR, RR []int64
}

func histPairCodec() serial.Codec[histPair] {
	return serial.Funcs[histPair]{
		Enc: func(w *serial.Writer, v histPair) {
			w.I64Slice(v.DR)
			w.I64Slice(v.RR)
		},
		Dec: func(r *serial.Reader) histPair {
			return histPair{DR: r.I64Slice(), RR: r.I64Slice()}
		},
	}
}

func addHistPair(a, b histPair) histPair {
	array.AddInto(a.DR, b.DR)
	array.AddInto(a.RR, b.RR)
	return a
}

// trioletOp distributes the random sets (Fig. 6's randomSetsCorrelation):
// each node computes DR and RR contributions for its slice of sets with a
// thread-parallel fused pipeline, and histograms are reduced by addition.
var trioletOp = core.NewMapReduce(
	"tpacf.triolet",
	setsCodec(),
	obsAuxCodec(),
	histPairCodec(),
	func(n *cluster.Node, sets [][]Point, aux obsAux) (histPair, error) {
		bins := len(aux.Binb) - 1
		// corr1 per set, parallelized across data sets (localpar over the
		// outer set loop, per paper §4.4), with score fused into the pair
		// generators.
		drIt := iter.LocalPar(iter.ConcatMap(func(set []Point) iter.Iter[int] {
			return crossScores(aux.Binb, aux.Obs, set)
		}, iter.FromSlice(sets)))
		rrIt := iter.LocalPar(iter.ConcatMap(func(set []Point) iter.Iter[int] {
			return selfScores(aux.Binb, set)
		}, iter.FromSlice(sets)))
		return histPair{
			DR: core.HistogramLocal(n.Pool, bins, drIt, 1),
			RR: core.HistogramLocal(n.Pool, bins, rrIt, 1),
		}, nil
	},
	addHistPair,
)

// Triolet runs the paper's Triolet implementation: DD locally on the
// master's threads (one data set, parallelized across its elements), DR
// and RR distributed across the random sets.
func Triolet(s *cluster.Session, in *Input) (Result, error) {
	pool := s.Node().Pool
	dd := core.HistogramLocal(pool, in.Bins(), iter.LocalPar(selfScores(in.Binb, in.Obs)), 1)
	hp, err := trioletOp.Run(s, core.SliceSource(in.Rands), obsAux{Obs: in.Obs, Binb: in.Binb})
	if err != nil {
		return Result{}, err
	}
	return Result{DD: dd, DRS: hp.DR, RRS: hp.RR}, nil
}

// ---- Eden ----

// The Eden port follows the paper's optimized style: tasks use imperative
// loops and mutable arrays for histogramming ("for nested loops that build
// histograms in tpacf", §4.1), because stepper-style list traversals are
// 2–5× slower. Each task carries one random set AND a copy of the observed
// set — Eden has no broadcast. The master adds up per-set histograms.
type edenTask struct {
	Set []Point
	Aux obsAux
}

func edenTaskCodec() serial.Codec[edenTask] {
	ac := obsAuxCodec()
	return serial.Funcs[edenTask]{
		Enc: func(w *serial.Writer, v edenTask) {
			pointsCodec.Encode(w, v.Set)
			ac.Encode(w, v.Aux)
		},
		Dec: func(r *serial.Reader) edenTask {
			return edenTask{Set: pointsCodec.Decode(r), Aux: ac.Decode(r)}
		},
	}
}

var edenProc = eden.Declare("tpacf.eden", edenTaskCodec(), histPairCodec(), edenBody)

// edenBody is the Eden process: one random set's DR and RR histograms.
func edenBody(t edenTask) histPair {
	bins := len(t.Aux.Binb) - 1
	dr, rr := make([]int64, bins), make([]int64, bins)
	CrossCorr(t.Aux.Binb, t.Aux.Obs, t.Set, dr)
	SelfCorr(t.Aux.Binb, t.Set, rr)
	return histPair{DR: dr, RR: rr}
}

// Eden runs the Eden implementation: DD sequentially on the master (no
// shared memory to parallelize one set's triangular loop profitably), DR
// and RR as a two-level parMap+reduce over random sets.
func Eden(m *eden.Master, in *Input) (Result, error) {
	bins := in.Bins()
	dd := make([]int64, bins)
	SelfCorr(in.Binb, in.Obs, dd)
	aux := obsAux{Obs: in.Obs, Binb: in.Binb}
	tasks := make([]edenTask, len(in.Rands))
	for i, set := range in.Rands {
		tasks[i] = edenTask{Set: set, Aux: aux}
	}
	zero := histPair{DR: make([]int64, bins), RR: make([]int64, bins)}
	hp, err := edenProc.ParMapReduce(m, tasks, zero, addHistPair)
	if err != nil {
		return Result{}, err
	}
	return Result{DD: dd, DRS: hp.DR, RRS: hp.RR}, nil
}

// ---- C+MPI+OpenMP reference ----

// Ref is the hand-partitioned reference: sets scattered, observed set
// broadcast, per-thread private histograms (the paper notes the C code
// "examines the number of threads in order to privatize histograms"),
// tree-reduced.
func Ref(cfg cluster.Config, in *Input) (out Result, err error) {
	cores := cfg.CoresPerNode
	err = mpi.Run(transport.Config{Ranks: cfg.Nodes}, func(c *mpi.Comm) error {
		pool := sched.NewPool(cores)
		defer pool.Close()

		var parts [][][]Point
		if c.Rank() == 0 {
			parts = make([][][]Point, c.Size())
			for i, r := range domain.BlockPartition(len(in.Rands), c.Size()) {
				parts[i] = in.Rands[r.Lo:r.Hi]
			}
		}
		mine, err := mpi.ScatterT(c, 0, setsCodec(), parts)
		if err != nil {
			return err
		}
		var aux obsAux
		if c.Rank() == 0 {
			aux = obsAux{Obs: in.Obs, Binb: in.Binb}
		}
		aux, err = mpi.BcastT(c, 0, obsAuxCodec(), aux)
		if err != nil {
			return err
		}
		bins := len(aux.Binb) - 1
		// Private histograms per thread, merged after the loop.
		private := make([]histPair, pool.Workers())
		for w := range private {
			private[w] = histPair{DR: make([]int64, bins), RR: make([]int64, bins)}
		}
		pool.ParallelFor(len(mine), 1, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				CrossCorr(aux.Binb, aux.Obs, mine[i], private[worker].DR)
				SelfCorr(aux.Binb, mine[i], private[worker].RR)
			}
		})
		local := histPair{DR: make([]int64, bins), RR: make([]int64, bins)}
		for _, p := range private {
			local = addHistPair(local, p)
		}
		total, ok, err := mpi.ReduceT(c, histPairCodec(), local, addHistPair)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && ok {
			// DD on the root's threads: triangular loop over the observed
			// set with privatized histograms.
			dd := ddParallel(pool, aux.Binb, aux.Obs)
			out = Result{DD: dd, DRS: total.DR, RRS: total.RR}
		}
		return nil
	})
	return out, err
}

// ddParallel computes the observed self-correlation with per-thread
// private histograms over the triangular outer loop.
func ddParallel(pool *sched.Pool, binb []float32, obs []Point) []int64 {
	bins := len(binb) - 1
	private := make([][]int64, pool.Workers())
	for w := range private {
		private[w] = make([]int64, bins)
	}
	pool.ParallelFor(len(obs), 1, func(worker, lo, hi int) {
		h := private[worker]
		for i := lo; i < hi; i++ {
			u := obs[i]
			for j := i + 1; j < len(obs); j++ {
				h[Score(binb, u, obs[j])]++
			}
		}
	})
	out := make([]int64, bins)
	for _, h := range private {
		array.AddInto(out, h)
	}
	return out
}
