package core

import (
	"runtime"
	"testing"

	"triolet/internal/iter"
	"triolet/internal/sched"
)

// Sinks defeat dead-code elimination in the alloc measurements.
var (
	histAllocSink  []int64
	whistAllocSink []float32
)

// The parallel histogram's allocation bound is workers bin arrays and
// workers staging arenas plus a constant number of descriptors —
// independent of element count. The block AddInto merge must not reintroduce per-element or
// per-bin boxing, so the gate compares a 64× larger input at an identical
// range count and requires no allocation growth. Runs under CI's
// alloc-gate job (-run 'ZeroAllocs|Allocs|Arena|Presize').
func TestHistogramMergeAllocsBounded(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	const bins = 64

	measure := func(n int) float64 {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i % bins
		}
		it := iter.LocalPar(iter.FromSlice(xs))
		grain := n / 8 // 8 parallel ranges regardless of n
		return testing.AllocsPerRun(10, func() {
			histAllocSink = HistogramLocal(pool, bins, it, grain)
		})
	}
	small, big := measure(4096), measure(262144)
	if big > small+8 {
		t.Fatalf("histogram allocs scale with input: %v for 4Ki elems, %v for 256Ki", small, big)
	}
}

func TestWeightedHistogramMergeAllocsBounded(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	const bins = 64

	measure := func(n int) float64 {
		xs := make([]iter.Bin[float32], n)
		for i := range xs {
			xs[i] = iter.Bin[float32]{I: i % bins, W: float32(i%7) * 0.5}
		}
		it := iter.LocalPar(iter.FromSlice(xs))
		grain := n / 8
		return testing.AllocsPerRun(10, func() {
			whistAllocSink = WeightedHistogramLocal(pool, bins, it, grain)
		})
	}
	small, big := measure(4096), measure(262144)
	if big > small+8 {
		t.Fatalf("weighted histogram allocs scale with input: %v for 4Ki elems, %v for 256Ki", small, big)
	}
}

// leafGrowth reports how many more bytes a call of run allocates, per extra
// leaf, at grain 8 than at grain 64: 64 leaves against 8 over a 512-atom nest.
func leafGrowth(run func(grain int)) float64 {
	few := callBytes(func() { run(64) })
	return (callBytes(func() { run(8) }) - few) / 56
}

// cutcpNest is a cutcp-shaped stream nest: 512 atoms, each updating a run of
// 40–100 grid points of a 64-bin grid.
func cutcpNest[U any](bin func(i int, w float32) U) iter.Iter[U] {
	return iter.LocalPar(iter.StreamNest(iter.IdxRange(512), func(a int) int { return 40 + a%61 },
		func(a int, dst []U, base int) int {
			for j := range dst {
				dst[j] = bin((a+base+j)%64, float32(a%7)*0.5)
			}
			return len(dst)
		}))
}

// TestWeightedHistogramLocalLeafAllocs: each pool worker stages its leaves'
// blocks in one arena, kept beside its bins, and a nest's Split moves its
// outer window without allocating, so a leaf of a cutcp-shaped nest
// allocates nothing: no staging arena of BlockSize bins (4 KiB), no split
// descriptors. The 16-byte budget is the work deque's growth with split
// depth. Runs under CI's alloc-gate job.
func TestWeightedHistogramLocalLeafAllocs(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	it := cutcpNest(func(i int, w float32) iter.Bin[float32] { return iter.Bin[float32]{I: i, W: w} })
	if b := leafGrowth(func(grain int) { whistAllocSink = WeightedHistogramLocal(pool, 64, it, grain) }); b > 16 {
		t.Fatalf("a weighted histogram leaf allocates %.0f bytes, want ≤ 16", b)
	}
}

// TestHistogramLocalLeafAllocs is TestWeightedHistogramLocalLeafAllocs for
// HistogramLocal's int bins, whose per-leaf arena would be 2 KiB.
func TestHistogramLocalLeafAllocs(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	it := cutcpNest(func(i int, _ float32) int { return i })
	if b := leafGrowth(func(grain int) { histAllocSink = HistogramLocal(pool, 64, it, grain) }); b > 16 {
		t.Fatalf("a histogram leaf allocates %.0f bytes, want ≤ 16", b)
	}
}

// callBytes is the bytes one call of run allocates, averaged over 20 calls
// after a warm-up.
func callBytes(run func()) float64 {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 20 {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 20
}

// TestHistogramLocalCallAllocs: a whole threaded histogram call allocates
// one bin array and one staging arena per pool worker, plus the pool's and
// the call's descriptors (1.1–1.4 KiB) — no merge target. The grids are 64 KiB
// and 128 KiB, so a fresh grid to merge into would break the budget by far.
func TestHistogramLocalCallAllocs(t *testing.T) {
	const workers, bins, slack = 2, 1 << 14, 2048
	pool := sched.NewPool(workers)
	defer pool.Close()
	wit := cutcpNest(func(i int, w float32) iter.Bin[float32] { return iter.Bin[float32]{I: i * 97 % bins, W: w} })
	budget := float64(workers*(bins*4+iter.BlockSize*16) + slack)
	if b := callBytes(func() { whistAllocSink = WeightedHistogramLocal(pool, bins, wit, 8) }); b > budget {
		t.Fatalf("a weighted histogram call allocates %.0f bytes, want ≤ %.0f (2 grids, 2 arenas)", b, budget)
	}
	it := cutcpNest(func(i int, _ float32) int { return i * 97 % bins })
	budget = float64(workers*(bins*8+iter.BlockSize*8) + slack)
	if b := callBytes(func() { histAllocSink = HistogramLocal(pool, bins, it, 8) }); b > budget {
		t.Fatalf("a histogram call allocates %.0f bytes, want ≤ %.0f (2 grids, 2 arenas)", b, budget)
	}
}
