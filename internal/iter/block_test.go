package iter

import (
	"testing"

	"triolet/internal/domain"
)

// White-box tests for the block engine: FillRange's three paths, and the
// invariant that pipeline constructors preserve the block representations
// through composition and Split. Losing one is not a correctness bug — the
// At loop gives the same answer — so only these tests and the bench gate
// would catch the regression.

func TestBlockSizeIsPowerOfTwo(t *testing.T) {
	if BlockSize != 256 {
		// sched.BlockAlign mirrors this value without importing iter; its
		// side of the pairing is asserted in internal/sched. Update both.
		t.Fatalf("BlockSize = %d; update sched.BlockAlign to match and fix both tests", BlockSize)
	}
	if BlockSize&(BlockSize-1) != 0 {
		t.Fatalf("BlockSize = %d must be a power of two (sched snaps with a mask)", BlockSize)
	}
	if blockMin > BlockSize {
		t.Fatalf("blockMin %d > BlockSize %d", blockMin, BlockSize)
	}
}

func TestFillRangePaths(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(3*i - 7)
	}
	check := func(name string, it Iter[int64], want func(i int) int64) {
		t.Helper()
		for _, span := range []struct{ lo, n int }{{0, 1000}, {17, 500}, {999, 1}, {5, blockMin - 1}, {0, 0}} {
			dst := make([]int64, span.n)
			FillRange(dst, it, span.lo)
			for i, v := range dst {
				if v != want(span.lo+i) {
					t.Fatalf("%s: FillRange(lo=%d)[%d] = %d, want %d", name, span.lo, i, v, want(span.lo+i))
				}
			}
		}
	}
	check("slice-backed", FromSlice(xs), func(i int) int64 { return xs[i] })
	check("map-kernel", Map(func(v int64) int64 { return v * 2 }, FromSlice(xs)),
		func(i int) int64 { return xs[i] * 2 })
	// At-only indexer: no back, no fill — exercises the fallback loop.
	check("at-only", IdxFlat(Idx[int64]{N: 1000, At: func(i int) int64 { return int64(i * i) }}),
		func(i int) int64 { return int64(i * i) })
	check("range-kernel", Map(func(i int) int64 { return int64(i) + 100 }, Range(1000)),
		func(i int) int64 { return int64(i) + 100 })
}

func TestFillRangePanicsOnNonFlat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillRange of a filtered iterator must panic (no per-index output position)")
		}
	}()
	it := Filter(func(v int64) bool { return v > 0 }, FromSlice([]int64{1, -2, 3}))
	FillRange(make([]int64, 2), it, 0)
}

// TestFastPathPreservation pins which constructors carry the fast-path
// representation forward. Each case would still be correct without the fast
// path; the assertions exist so a refactor can't silently fall back to
// per-element At chains.
func TestFastPathPreservation(t *testing.T) {
	xs := make([]int64, 2048)
	for i := range xs {
		xs[i] = int64(i % 131)
	}
	src := FromSlice(xs)
	if src.idx.backing() == nil {
		t.Fatal("FromSlice must record its backing slice")
	}
	if s := Split(src, domain.Range{Lo: 300, Hi: 900}); s.idx.backing() == nil {
		t.Fatal("Split of a slice-backed iterator must stay slice-backed")
	}

	if r := Range(100); !r.idx.fast.blocked() {
		t.Fatal("Range must carry a block kernel")
	}

	m := Map(func(v int64) int64 { return v + 1 }, src)
	if !m.idx.fast.blocked() {
		t.Fatal("Map over a slice-backed iterator must carry a block kernel")
	}
	if s := Split(m, domain.Range{Lo: 256, Hi: 1024}); !s.idx.fast.blocked() {
		t.Fatal("Split of a mapped iterator must keep the block kernel")
	}
	if mm := Map(func(v int64) int64 { return v * 3 }, m); !mm.idx.fast.blocked() {
		t.Fatal("Map over a mapped iterator must compose block kernels")
	}

	f := Filter(func(v int64) bool { return v%2 == 0 }, src)
	if !f.fidx.fast.blocked() {
		t.Fatal("Filter over a slice-backed iterator must carry a compacting kernel")
	}
	if s := Split(f, domain.Range{Lo: 100, Hi: 2000}); !s.fidx.fast.blocked() {
		t.Fatal("Split of a filtered iterator must keep the compacting kernel")
	}
	if mf := Map(func(v int64) int64 { return v - 5 }, f); !mf.fidx.fast.blocked() {
		t.Fatal("Map over a filtered iterator must compose into the compacting kernel")
	}
	if ff := Filter(func(v int64) bool { return v%3 == 0 }, f); !ff.fidx.fast.blocked() {
		t.Fatal("Filter over a filtered iterator must compose compacting kernels")
	}

	if z := ZipWith(func(a, b int64) int64 { return a * b }, src, src); !z.idx.fast.blocked() {
		t.Fatal("ZipWith of slice-backed iterators must carry a block kernel")
	}
	if z := Zip(src, src); !z.idx.fast.blocked() {
		t.Fatal("Zip of slice-backed iterators must carry a block kernel")
	}
	if zm := Map(func(p Pair[int64, int64]) int64 { return p.Fst + p.Snd }, Zip(src, src)); !zm.idx.fast.blocked() {
		t.Fatal("Map over Zip (the dot-product shape) must compose block kernels")
	}
}

// TestReaderKernelAgainstAt cross-checks every generated read kernel against
// the At contract on a composed producer.
func TestReaderKernelAgainstAt(t *testing.T) {
	xs := make([]int64, 700)
	for i := range xs {
		xs[i] = int64(i*i%251 - 30)
	}
	its := map[string]Iter[int64]{
		"slice":   FromSlice(xs),
		"map":     Map(func(v int64) int64 { return 2*v - 1 }, FromSlice(xs)),
		"zipwith": ZipWith(func(a, b int64) int64 { return a - b }, FromSlice(xs), Map(func(v int64) int64 { return v / 2 }, FromSlice(xs))),
		"split":   Split(Map(func(v int64) int64 { return v + 9 }, FromSlice(xs)), domain.Range{Lo: 123, Hi: 650}),
	}
	for name, it := range its {
		ix := it.idx
		if !ix.fast.blocked() {
			t.Fatalf("%s: no read kernel", name)
		}
		kernel := ix.fast.kernel()
		buf := make([]int64, BlockSize)
		for base := 0; base < ix.N; base += BlockSize {
			n := min(BlockSize, ix.N-base)
			if k := kernel(buf[:n], base); k != n {
				t.Fatalf("%s: total kernel produced %d of %d at base %d", name, k, n, base)
			}
			for i := 0; i < n; i++ {
				if buf[i] != ix.At(base+i) {
					t.Fatalf("%s: kernel[%d] = %d, At(%d) = %d", name, base+i, buf[i], base+i, ix.At(base+i))
				}
			}
		}
	}
}

// TestSharedIteratorConcurrentTraversal: kernels are generated per traversal,
// so one iterator value must be traversable from many goroutines at once
// (the sched pool does exactly this with Split ranges). Run with -race.
func TestSharedIteratorConcurrentTraversal(t *testing.T) {
	xs := make([]int64, 10000)
	var want int64
	for i := range xs {
		xs[i] = int64(i % 73)
	}
	it := Filter(func(v int64) bool { return v%5 != 0 },
		Map(func(v int64) int64 { return v*3 + 1 }, FromSlice(xs)))
	want = Sum(it)

	const workers = 8
	errs := make(chan int64, workers)
	for w := 0; w < workers; w++ {
		go func() { errs <- Sum(it) }()
	}
	for w := 0; w < workers; w++ {
		if got := <-errs; got != want {
			t.Fatalf("concurrent traversal: got %d, want %d", got, want)
		}
	}
}
