package iter

import (
	"testing"

	"triolet/internal/domain"
)

// fuzzStream is the stream nest FuzzStreamNest draws: outer element i has
// extent exts[i], and inner element j of it is rejected when bit
// (7i+j) mod 64 of reject is set.
func fuzzStream(exts []int, reject uint64) Iter[float64] {
	return StreamNest(IdxOf(exts), func(n int) int { return n }, func(n int, dst []float64, base int) int {
		k := 0
		for j := base; j < base+len(dst); j++ {
			if reject>>((7*n+j)%64)&1 == 0 {
				dst[k] = float64((n*131+j*7)%1013-500) * 0.1
				k++
			}
		}
		return k
	})
}

// FuzzStreamNest: every consumer through the driver equals the same
// consumer over ToStep, float sums bit for bit, for the whole nest and for
// a Split window of it. Extents are drawn from byte pairs, below 600, so
// they cross the block boundaries.
func FuzzStreamNest(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 31, 0, 32, 0, 255, 1, 0, 1, 1}, uint64(0x5a5a), uint16(1), uint16(6))
	f.Add([]byte{}, uint64(0), uint16(0), uint16(0))
	f.Add([]byte{2, 0, 0, 0, 0, 3}, ^uint64(0), uint16(3), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, reject uint64, lo, hi uint16) {
		exts := make([]int, min(len(raw)/2, 64))
		for i := range exts {
			exts[i] = (int(raw[2*i])<<8 | int(raw[2*i+1])) % 600
		}
		it := fuzzStream(exts, reject)
		if d := consume(it, floatProbe).diff(stepRef(it, floatProbe)); d != "" {
			t.Fatalf("extents %v reject %#x: %s", exts, reject, d)
		}
		r := domain.Range{Lo: int(lo) % (len(exts) + 1), Hi: int(hi) % (len(exts) + 1)}
		if r.Lo > r.Hi {
			r.Lo, r.Hi = r.Hi, r.Lo
		}
		sub := Split(it, r)
		if d := consume(sub, floatProbe).diff(stepRef(sub, floatProbe)); d != "" {
			t.Fatalf("extents %v reject %#x split %v: %s", exts, reject, r, d)
		}
	})
}

// TestSharedStreamNestConcurrentTraversal: TestSharedIteratorConcurrentTraversal
// for a stream nest. The nest holds no traversal state (each traversal
// stages through its own arena), so goroutines may share it, whole and as
// Split ranges. Run with -race.
func TestSharedStreamNestConcurrentTraversal(t *testing.T) {
	exts := make([]int, 300)
	for i := range exts {
		exts[i] = (i * 37) % 530
	}
	it := fuzzStream(exts, 0x8421_0842_1084_2108)
	want := Sum(it)
	const workers = 8
	got := make(chan float64, workers)
	for w := 0; w < workers; w++ {
		go func() {
			if w%2 == 0 {
				got <- Sum(it)
				return
			}
			// Split at an unaligned outer offset, summed in order: the same
			// addition tree as the whole.
			acc := 0.0
			for _, r := range []domain.Range{{Lo: 0, Hi: 77}, {Lo: 77, Hi: 300}} {
				acc = sumInto(acc, Split(it, r), new([]float64))
			}
			got <- acc
		}()
	}
	for w := 0; w < workers; w++ {
		if g := <-got; !sameBits(g, want) {
			t.Fatalf("concurrent traversal: got %v, want %v", g, want)
		}
	}
}
