package core

import (
	"math"
	"testing"
	"testing/quick"

	"triolet/internal/array"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/sched"
)

func TestSumLocalSequentialAndParallelAgree(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	xs := make([]int64, 10000)
	for i := range xs {
		xs[i] = int64(i % 97)
	}
	seqIt := iter.FromSlice(xs)
	parIt := iter.LocalPar(iter.FromSlice(xs))
	want := iter.Sum(seqIt)
	if got := SumLocal(pool, seqIt, 64); got != want {
		t.Fatalf("sequential SumLocal = %d, want %d", got, want)
	}
	if got := SumLocal(pool, parIt, 64); got != want {
		t.Fatalf("parallel SumLocal = %d, want %d", got, want)
	}
}

func TestSumLocalFusedPipeline(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	// sum(filter(even, map(*3, xs))) with localpar — a fused irregular
	// pipeline split across threads.
	xs := make([]int64, 5000)
	for i := range xs {
		xs[i] = int64(i)
	}
	it := iter.LocalPar(iter.Filter(func(v int64) bool { return v%2 == 0 },
		iter.Map(func(x int64) int64 { return x * 3 }, iter.FromSlice(xs))))
	var want int64
	for _, x := range xs {
		if v := x * 3; v%2 == 0 {
			want += v
		}
	}
	if got := SumLocal(pool, it, 32); got != want {
		t.Fatalf("fused SumLocal = %d, want %d", got, want)
	}
}

func TestSumLocalUnsplittableFallsBack(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	it := iter.LocalPar(iter.StepFlat(iter.StepOf([]int{1, 2, 3})))
	if got := SumLocal(pool, it, 1); got != 6 {
		t.Fatalf("stepper SumLocal = %d", got)
	}
}

func TestSumLocalNilPool(t *testing.T) {
	it := iter.LocalPar(iter.Range(100))
	if got := SumLocal(nil, it, 1); got != 4950 {
		t.Fatalf("nil-pool SumLocal = %d", got)
	}
}

func TestReduceLocalNonTrivialAccumulator(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	// max via reduce
	xs := []int{3, 9, 1, 9, 4, 0, 8}
	it := iter.LocalPar(iter.FromSlice(xs))
	got := ReduceLocal(pool, it, 2, -1,
		func(a int, v int) int { return max(a, v) },
		func(a, b int) int { return max(a, b) })
	if got != 9 {
		t.Fatalf("max = %d", got)
	}
}

func TestHistogramLocalMatchesSequential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	prop := func(xs []uint8) bool {
		vals := make([]int, len(xs))
		for i, x := range xs {
			vals[i] = int(x % 32)
		}
		seq := iter.Histogram(32, iter.FromSlice(vals))
		par := HistogramLocal(pool, 32, iter.LocalPar(iter.FromSlice(vals)), 8)
		for i := range seq {
			if seq[i] != par[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramLocalNestedPipeline(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	// The tpacf shape: histogram over a concatMap of per-element inner
	// loops, thread-parallel with private bins.
	mk := func(hint bool) iter.Iter[int] {
		it := iter.ConcatMap(func(x int) iter.Iter[int] {
			return iter.Map(func(j int) int { return (x + j) % 10 }, iter.Range(x%7))
		}, iter.Range(500))
		if hint {
			return iter.LocalPar(it)
		}
		return it
	}
	seq := iter.Histogram(10, mk(false))
	par := HistogramLocal(pool, 10, mk(true), 16)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("bin %d: seq %d par %d", i, seq[i], par[i])
		}
	}
}

func TestWeightedHistogramLocal(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	mk := func(hint iter.Iter[iter.Bin[float64]]) iter.Iter[iter.Bin[float64]] { return hint }
	_ = mk
	build := func() iter.Iter[iter.Bin[float64]] {
		return iter.Map(func(i int) iter.Bin[float64] {
			return iter.Bin[float64]{I: i % 16, W: float64(i%5) * 0.5}
		}, iter.Range(4096))
	}
	seq := iter.WeightedHistogram(16, build())
	par := WeightedHistogramLocal(pool, 16, iter.LocalPar(build()), 64)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("bin %d: seq %v par %v", i, seq[i], par[i])
		}
	}
}

func TestBuildSliceLocal(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	it := iter.LocalPar(iter.Map(func(i int) int { return i * i }, iter.Range(3000)))
	got := BuildSliceLocal(pool, it, 128)
	if len(got) != 3000 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Irregular iterator falls back to ordered sequential collection.
	irr := iter.LocalPar(iter.Filter(func(x int) bool { return x%2 == 0 }, iter.Range(10)))
	if got := BuildSliceLocal(pool, irr, 4); len(got) != 5 || got[4] != 8 {
		t.Fatalf("irregular = %v", got)
	}
}

func TestBuild2Local(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	d := domain.NewDim2(33, 47)
	it := iter.LocalPar2(iter.Map2(func(ix domain.Ix2) int {
		return ix.Y*1000 + ix.X
	}, iter.ArrayRange2(d)))
	m := Build2Local(pool, it)
	if m.H != 33 || m.W != 47 {
		t.Fatalf("shape %dx%d", m.H, m.W)
	}
	for y := 0; y < d.H; y++ {
		for x := 0; x < d.W; x++ {
			if m.At(y, x) != y*1000+x {
				t.Fatalf("m[%d][%d] = %d", y, x, m.At(y, x))
			}
		}
	}
	// Sequential path
	seqIt := iter.Map2(func(ix domain.Ix2) int { return ix.X }, iter.ArrayRange2(domain.NewDim2(2, 2)))
	sm := Build2Local(pool, seqIt)
	if sm.At(1, 1) != 1 {
		t.Fatalf("seq build = %v", sm.Data)
	}
	// Empty domain
	em := Build2Local(pool, iter.LocalPar2(iter.ArrayRange2(domain.NewDim2(0, 4))))
	if len(em.Data) != 0 {
		t.Fatal("empty build produced data")
	}
}

// freshMerge is the threaded histograms' earlier merge: every worker's bins
// added, in worker order, into a fresh zeroed grid.
func freshMerge[W iter.Number](private [][]W) []W {
	out := make([]W, len(private[0]))
	for _, h := range private {
		array.AddInto(out, h)
	}
	return out
}

// mergeCase is three workers' grids as bins fill them — each from +0, by
// addition only — with bins that cancel to zero within a worker and across
// workers, bins that only one worker touched, and bins no worker touched.
func mergeCase[W iter.Number](vals []W) [][]W {
	private := make([][]W, 3)
	for w := range private {
		private[w] = make([]W, 4*len(vals))
	}
	for i, v := range vals {
		private[0][4*i] += v
		private[1][4*i] += -v // cancels across workers
		private[1][4*i+1] += v
		private[1][4*i+1] += -v // cancels within a worker
		private[2][4*i+2] += v * 3
	}
	return private
}

// TestMergeIntoWorkerZeroSameBits: merging the workers' grids into worker
// 0's gives the bits the fresh-grid merge gave, for integer and float bins,
// cancelling bins included (+0 either way: a bin that starts at +0 and only
// has values added never holds −0).
func TestMergeIntoWorkerZeroSameBits(t *testing.T) {
	ints := []int64{0, 1, -7, 1 << 40, -(1 << 62)}
	floats := []float32{0, 1.5, -2.25, 3e-39, -1e30, 0.1}
	for name, got := range map[string][2][]uint64{
		"int64":   bits(freshMerge(mergeCase(ints)), mergeGrids(mergeCase(ints)), func(v int64) uint64 { return uint64(v) }),
		"float32": bits(freshMerge(mergeCase(floats)), mergeGrids(mergeCase(floats)), func(v float32) uint64 { return uint64(math.Float32bits(v)) }),
	} {
		for i := range got[0] {
			if got[0][i] != got[1][i] {
				t.Fatalf("%s bin %d: fresh-grid merge %#x, merge into worker 0 %#x", name, i, got[0][i], got[1][i])
			}
		}
	}
}

func bits[W iter.Number](a, b []W, of func(W) uint64) [2][]uint64 {
	var out [2][]uint64
	for _, v := range a {
		out[0] = append(out[0], of(v))
	}
	for _, v := range b {
		out[1] = append(out[1], of(v))
	}
	return out
}
