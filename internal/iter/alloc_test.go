// Allocation-count regression tests for the block engine's slice-backed
// fast paths. The race detector instruments allocations, so these only run
// in normal builds; CI's race job covers the same paths for correctness.

//go:build !race

package iter

import (
	"runtime"
	"testing"

	"triolet/internal/domain"
)

var allocSink int64

var allocSinkF float64

// TestSumSliceBackedZeroAllocs: summing a slice-backed iterator must range
// over the backing array directly — zero allocations, not even a buffer.
func TestSumSliceBackedZeroAllocs(t *testing.T) {
	xs := make([]int64, 1<<14)
	for i := range xs {
		xs[i] = int64(i)
	}
	it := FromSlice(xs)
	if n := testing.AllocsPerRun(100, func() { allocSink = Sum(it) }); n != 0 {
		t.Fatalf("Sum over slice-backed iterator allocated %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { allocSink = int64(Count(it)) }); n != 0 {
		t.Fatalf("Count over slice-backed iterator allocated %.1f per run, want 0", n)
	}
}

// TestReduceSliceBackedZeroAllocs: a generic Reduce over a slice-backed
// iterator folds the backing array directly — zero allocations.
func TestReduceSliceBackedZeroAllocs(t *testing.T) {
	xs := make([]int64, 1<<14)
	for i := range xs {
		xs[i] = int64(i % 257)
	}
	it := FromSlice(xs)
	w := func(a, v int64) int64 { return a + v }
	if n := testing.AllocsPerRun(100, func() { allocSink = Reduce(it, int64(0), w) }); n != 0 {
		t.Fatalf("Reduce over slice-backed iterator allocated %.1f per run, want 0", n)
	}
}

// TestFusedReductionZeroAllocs: the fused kernels (fuse.go) reduce zipWith
// and zip-map pipelines straight off the source arrays — the kernel is
// built once at pipeline construction, so steady-state traversals allocate
// nothing: no staging buffer, no per-traversal kernel generation.
func TestFusedReductionZeroAllocs(t *testing.T) {
	a := make([]float64, 1<<13)
	b := make([]float64, 1<<13)
	for i := range a {
		a[i] = float64(i%911) * 0.5
		b[i] = float64(i%613) * 0.25
	}

	zw := ZipWith(func(x, y float64) float64 { return x * y }, FromSlice(a), FromSlice(b))
	if n := testing.AllocsPerRun(100, func() { allocSinkF = Sum(zw) }); n != 0 {
		t.Fatalf("zipwith-sum allocated %.1f per run, want 0 (fused kernel)", n)
	}

	// The Pair-constructing dot-product route: Zip then Map. The pair is
	// built inline inside the fused kernel and never touches memory.
	dp := Map(func(p Pair[float64, float64]) float64 { return p.Fst * p.Snd },
		Zip(FromSlice(a), FromSlice(b)))
	if n := testing.AllocsPerRun(100, func() { allocSinkF = Sum(dp) }); n != 0 {
		t.Fatalf("dot-product allocated %.1f per run, want 0 (fused pair kernel)", n)
	}

	// Fusion survives parallel-split restriction: a Split slice of the
	// pipeline reduces with the rebased kernel, still zero allocations.
	half := Split(zw, domain.Range{Lo: len(a) / 2, Hi: len(a)})
	if n := testing.AllocsPerRun(100, func() { allocSinkF = Sum(half) }); n != 0 {
		t.Fatalf("split zipwith-sum allocated %.1f per run, want 0 (rebased fused kernel)", n)
	}
}

// concatMapSumAllocs measures per-traversal allocations of a concatMap nest
// with block-driven inner pipelines of the given length.
func concatMapSumAllocs(inner int) float64 {
	const outer = 64
	xs := make([]int64, outer)
	for i := range xs {
		xs[i] = int64(i)
	}
	it := ConcatMap(func(v int64) Iter[int64] {
		return Map(func(j int) int64 { return v + int64(j) }, Range(inner))
	}, FromSlice(xs))
	return testing.AllocsPerRun(20, func() { allocSink = Sum(it) })
}

// TestConcatMapAllocsInnerSizeIndependent: summing a nest costs a constant
// number of allocations per outer element (the inner iterator's closures)
// plus one shared arena — the count must not grow with inner length, which
// it would if each inner traversal allocated its own staging buffer.
func TestConcatMapAllocsInnerSizeIndependent(t *testing.T) {
	small := concatMapSumAllocs(blockMin * 2)
	large := concatMapSumAllocs(blockMin * 32)
	if small != large {
		t.Fatalf("concatMap Sum allocations scale with inner length: %.1f at %d vs %.1f at %d",
			small, blockMin*2, large, blockMin*32)
	}
}

// TestConcatMapArenaReuse: the nest's staging arena is allocated once per
// traversal and shared by every inner iterator. Without it each of the
// outer elements would allocate its own BlockSize staging buffer — outer x
// BlockSize x 8 bytes per traversal; with it the byte volume must stay well
// under one buffer per outer element. The inner pipeline is a bare Range
// whose kernel writes the staging buffer directly, so the measurement
// isolates the consumer-side buffer the arena owns (a type-changing map
// kernel would add its own per-traversal scratch on top).
func TestConcatMapArenaReuse(t *testing.T) {
	const outer = 128
	const inner = 512 // > BlockSize so inner loops stage through full blocks
	xs := make([]int, outer)
	it := ConcatMap(func(v int) Iter[int] { return Range(inner) }, FromSlice(xs))
	allocSink = int64(Sum(it)) // warm up lazily-initialized runtime state

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		allocSink = int64(Sum(it))
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	limit := float64(outer) * BlockSize * 8 / 4
	if perRun > limit {
		t.Fatalf("concatMap Sum allocates %.0f bytes per traversal, want < %.0f (shared arena, not a buffer per outer element)",
			perRun, limit)
	}
}

// pipelineSumAllocs measures the per-traversal allocations of a
// map-filter-sum pipeline over n elements.
func pipelineSumAllocs(n int) float64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 101)
	}
	it := Filter(func(v int64) bool { return v%3 == 0 },
		Map(func(v int64) int64 { return v * 7 }, FromSlice(xs)))
	return testing.AllocsPerRun(50, func() { allocSink = Sum(it) })
}

// TestPipelineSumAllocsSizeIndependent: block traversal allocates its kernel
// and one BlockSize buffer per traversal — a small constant that must not
// scale with the input (per-element drivers that box or append would).
func TestPipelineSumAllocsSizeIndependent(t *testing.T) {
	small := pipelineSumAllocs(1 << 10)
	large := pipelineSumAllocs(1 << 16)
	if small != large {
		t.Fatalf("pipeline Sum allocations scale with input: %.1f at 1Ki vs %.1f at 64Ki", small, large)
	}
	if small > 8 {
		t.Fatalf("pipeline Sum allocates %.1f per traversal, want <= 8 (kernel + scratch only)", small)
	}
}

// TestToSlicePresizes: materializing a flat pipeline must allocate the output
// exactly once at full size (plus O(1) kernel scratch), and a filtered
// pipeline must pre-size its output from the pre-filter length so appends
// never regrow it.
func TestToSlicePresizes(t *testing.T) {
	xs := make([]int64, 1<<14)
	for i := range xs {
		xs[i] = int64(i % 89)
	}

	flat := Map(func(v int64) int64 { return v + 1 }, FromSlice(xs))
	n := testing.AllocsPerRun(20, func() { allocSink = ToSlice(flat)[0] })
	if n > 4 {
		t.Fatalf("ToSlice of flat pipeline allocated %.1f per run, want <= 4 (output + kernel scratch)", n)
	}

	filtered := Filter(func(v int64) bool { return v%2 == 0 }, FromSlice(xs))
	out := ToSlice(filtered)
	if cap(out) != len(xs) {
		t.Fatalf("ToSlice of filtered pipeline: cap %d, want pre-sized %d (append must never regrow)",
			cap(out), len(xs))
	}
	fn := testing.AllocsPerRun(20, func() { allocSink = ToSlice(filtered)[0] })
	if fn > 4 {
		t.Fatalf("ToSlice of filtered pipeline allocated %.1f per run, want <= 4", fn)
	}
}

// TestHistogramAllocsSizeIndependent: the histogram consumer's block path
// must reuse one scratch buffer, so allocations do not scale with input.
func TestHistogramAllocsSizeIndependent(t *testing.T) {
	measure := func(n int) float64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i)
		}
		it := Map(func(v int64) int { return int(v % 32) }, FromSlice(xs))
		return testing.AllocsPerRun(20, func() { allocSink = Histogram(32, it)[3] })
	}
	small, large := measure(1<<10), measure(1<<15)
	if small != large {
		t.Fatalf("Histogram allocations scale with input: %.1f at 1Ki vs %.1f at 32Ki", small, large)
	}
}

// TestHistogramNestInnerLoopsZeroAllocs: the histogram consumers walk a
// nest themselves and drive short inner indexers — flat or partial, with no
// block kernel — through At with the bin update inline. Over prebuilt inner
// iterators that is zero allocations; over ConcatMap's closure form it is
// exactly what the producer allocates per outer element, whatever the inner
// length (1x vs 8x at equal outer length).
func TestHistogramNestInnerLoopsZeroAllocs(t *testing.T) {
	const outer = 64
	bins := make([]int64, 16)
	wbins := make([]float64, 16)
	flat := func(i, n int) Iter[int] {
		return IdxFlat(Idx[int]{N: n, At: func(j int) int { return (i + j) % 16 }})
	}
	partial := func(i, n int) Iter[int] {
		return IdxFilter(FIdx[int]{N: n, At: func(j int) (int, bool) { return (i + j) % 16, j%3 != 0 }})
	}
	weigh := func(b int) Bin[float64] { return Bin[float64]{I: b, W: 0.5} }
	var closureForm [2][2]float64 // [consumer][inner length] allocations
	for li, inner := range []int{3, 24} {
		for name, mk := range map[string]func(i, n int) Iter[int]{"flat": flat, "partial": partial} {
			inners := make([]Iter[int], outer)
			winners := make([]Iter[Bin[float64]], outer)
			for i := range inners {
				inners[i] = mk(i, inner)
				winners[i] = Map(weigh, inners[i])
			}
			nest, wnest := IdxNest(IdxOf(inners)), IdxNest(IdxOf(winners))
			if n := testing.AllocsPerRun(20, func() { HistogramInto(bins, nest) }); n != 0 {
				t.Fatalf("HistogramInto over %d %s inner loops of %d allocated %.1f per run, want 0", outer, name, inner, n)
			}
			if n := testing.AllocsPerRun(20, func() { WeightedHistogramInto(wbins, wnest) }); n != 0 {
				t.Fatalf("WeightedHistogramInto over %d %s inner loops of %d allocated %.1f per run, want 0", outer, name, inner, n)
			}
		}
		cm := ConcatMap(func(i int) Iter[int] { return partial(i, inner) }, Range(outer))
		wcm := Map(weigh, cm)
		closureForm[0][li] = testing.AllocsPerRun(20, func() { HistogramInto(bins, cm) })
		closureForm[1][li] = testing.AllocsPerRun(20, func() { WeightedHistogramInto(wbins, wcm) })
	}
	for c, name := range []string{"HistogramInto", "WeightedHistogramInto"} {
		if closureForm[c][0] != closureForm[c][1] {
			t.Fatalf("%s over ConcatMap allocated %.0f at inner length 3 and %.0f at 24: the consumer allocates per element",
				name, closureForm[c][0], closureForm[c][1])
		}
	}
}

// TestFilterKernelConsumersAllocsSizeIndependent: Count, ToSlice and Collect
// over a compacting filter kernel go through the block driver, which
// allocates per traversal — the kernel, its scratch, one staging buffer —
// and nothing per block, so the count must not move with the input.
func TestFilterKernelConsumersAllocsSizeIndependent(t *testing.T) {
	consumers := map[string]func(it Iter[int64]){
		"Count":   func(it Iter[int64]) { allocSink = int64(Count(it)) },
		"ToSlice": func(it Iter[int64]) { allocSink = int64(len(ToSlice(it))) },
		"Collect": func(it Iter[int64]) { Collect(it)(func(v int64) { allocSink += v }) },
	}
	for name, run := range consumers {
		measure := func(n int) float64 {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(i % 101)
			}
			// A type-changing map on each side of the filter: neither the
			// pure-filter view nor an in-place kernel, but the compacting
			// kernel with scratch below it and a mapped view above it.
			it := Map(func(v int) int64 { return int64(v) },
				Filter(func(v int) bool { return v%3 == 0 },
					Map(func(v int64) int { return int(v) * 7 }, FromSlice(xs))))
			return testing.AllocsPerRun(20, func() { run(it) })
		}
		small, large := measure(1<<10), measure(1<<16)
		if small != large {
			t.Fatalf("%s over a filter kernel: allocations scale with input: %.1f at 1Ki vs %.1f at 64Ki", name, small, large)
		}
		if small > 8 {
			t.Fatalf("%s over a filter kernel allocates %.1f per traversal, want <= 8 (kernels + scratch + one buffer)", name, small)
		}
	}
}

// TestReduceKernelAllocsSizeIndependent: a generic Reduce over a block
// kernel stages through one buffer per traversal, none per block.
func TestReduceKernelAllocsSizeIndependent(t *testing.T) {
	w := func(a, v int64) int64 { return a*31 + v }
	measure := func(n int) float64 {
		it := Map(func(i int) int64 { return int64(i % 89) }, Range(n))
		return testing.AllocsPerRun(20, func() { allocSink = Reduce(it, int64(0), w) })
	}
	small, large := measure(1<<10), measure(1<<16)
	if small != large {
		t.Fatalf("Reduce over a kernel: allocations scale with input: %.1f at 1Ki vs %.1f at 64Ki", small, large)
	}
	if small > 4 {
		t.Fatalf("Reduce over a kernel allocates %.1f per traversal, want <= 4 (kernel + scratch + one buffer)", small)
	}
}
