package iter

import (
	"math"
	"slices"
	"testing"

	"triolet/internal/domain"
)

// concatInner is outer element i's inner iterator in the ConcatMap nests
// below: n values, as an At-only indexer, a slice view, a filter over a
// mapped range (a block kernel from blockMin on) or a stepper, by form.
func concatInner(i, n, form int) Iter[float64] {
	val := func(j int) float64 { return float64((i*131+j*7)%1013-500) * 0.1 }
	switch form % 4 {
	case 0:
		return IdxFlat(Idx[float64]{N: n, At: val})
	case 1:
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = val(j)
		}
		return FromSlice(xs)
	case 2:
		return Filter(func(v float64) bool { return int(v*10)%3 != 0 }, Map(val, Range(n)))
	}
	return StepFlat(IdxToStep(Idx[float64]{N: n, At: val}))
}

// concatNest is ConcatMap over the outer range [0, len(lens)) — filtered,
// when filtered is set, to the i whose bit i mod 64 of reject is clear —
// with outer element i expanding to concatInner(i, lens[i], forms[i]).
func concatNest(lens, forms []int, filtered bool, reject uint64) Iter[float64] {
	outer := Range(len(lens))
	if filtered {
		outer = Filter(func(i int) bool { return reject>>(i%64)&1 == 0 }, outer)
	}
	return ConcatMap(func(i int) Iter[float64] { return concatInner(i, lens[i], forms[i]) }, outer)
}

// FuzzConcatMapNest: every consumer of a ConcatMap nest, through the nest
// walk, equals the same consumer over ToStep, float sums bit for bit — for
// the whole nest, one Split of it and a Split of that Split, at any outer
// offsets. Outer elements are drawn from byte triples: an inner length
// below 600 (0, 1 and across BlockSize) and an inner form (indexed,
// slice, filter or stepped); the outer range is flat or filtered.
func FuzzConcatMapNest(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 1, 0, 3, 0, 255, 0, 1, 3, 1, 2, 88, 2}, false, uint64(0x5a5a), uint16(1), uint16(6), uint16(1), uint16(3))
	f.Add([]byte{}, true, uint64(0), uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add([]byte{1, 44, 3, 0, 0, 1, 0, 31, 2, 0, 32, 0, 1, 0, 2}, true, ^uint64(0)>>1, uint16(4), uint16(2), uint16(5), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, filtered bool, reject uint64, lo, hi, lo2, hi2 uint16) {
		n := min(len(raw)/3, 48)
		lens, forms := make([]int, n), make([]int, n)
		for i := range lens {
			lens[i] = (int(raw[3*i])<<8 | int(raw[3*i+1])) % 600
			forms[i] = int(raw[3*i+2])
		}
		it := concatNest(lens, forms, filtered, reject)
		if d := consume(it, floatProbe).diff(stepRef(it, floatProbe)); d != "" {
			t.Fatalf("lens %v forms %v filtered %v: %s", lens, forms, filtered, d)
		}
		window := func(n int, lo, hi uint16) domain.Range {
			r := domain.Range{Lo: int(lo) % (n + 1), Hi: int(hi) % (n + 1)}
			if r.Lo > r.Hi {
				r.Lo, r.Hi = r.Hi, r.Lo
			}
			return r
		}
		r := window(n, lo, hi)
		sub := Split(it, r)
		if d := consume(sub, floatProbe).diff(stepRef(sub, floatProbe)); d != "" {
			t.Fatalf("lens %v forms %v filtered %v split %v: %s", lens, forms, filtered, r, d)
		}
		r2 := window(r.Len(), lo2, hi2)
		subsub := Split(sub, r2)
		if d := consume(subsub, floatProbe).diff(stepRef(subsub, floatProbe)); d != "" {
			t.Fatalf("lens %v forms %v filtered %v split %v then %v: %s", lens, forms, filtered, r, r2, d)
		}
	})
}

// TestSharedConcatMapNestConcurrentTraversal is
// TestSharedStreamNestConcurrentTraversal for a ConcatMap nest over every
// inner form: the nest holds no traversal state, so goroutines may share
// it, whole and as Split ranges. Run with -race.
func TestSharedConcatMapNestConcurrentTraversal(t *testing.T) {
	lens, forms := make([]int, 300), make([]int, 300)
	for i := range lens {
		lens[i], forms[i] = (i*37)%530, i
	}
	it := concatNest(lens, forms, true, 0x8421_0842_1084_2108)
	want := Sum(it)
	const workers = 8
	got := make(chan float64, workers)
	for w := 0; w < workers; w++ {
		go func() {
			if w%2 == 0 {
				got <- Sum(it)
				return
			}
			// Split at unaligned outer offsets, the second range split
			// again, summed in order: the same addition tree as the whole.
			acc := 0.0
			acc = sumInto(acc, Split(it, domain.Range{Lo: 0, Hi: 77}), new([]float64))
			rest := Split(it, domain.Range{Lo: 77, Hi: 300})
			for _, r := range []domain.Range{{Lo: 0, Hi: 101}, {Lo: 101, Hi: 223}} {
				acc = sumInto(acc, Split(rest, r), new([]float64))
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

// TestSplitNestPastInt32: a Split window that starts past math.MaxInt32,
// beyond Iter's in-place outer offset, re-bases the outer indexer instead —
// an At-only nest and a stream nest alike — and walks the same elements as
// ToStep.
func TestSplitNestPastInt32(t *testing.T) {
	const n = 1<<32 + 16
	at := IdxNest(Idx[Iter[int]]{N: n, At: func(i int) Iter[int] {
		return Map(func(j int) int { return i%1000*10 + j }, Range(i%3))
	}})
	stream := StreamNest(IdxRange(n), func(a int) int { return a % 3 }, func(a int, dst []int, base int) int {
		for j := range dst {
			dst[j] = a%1000*10 + base + j
		}
		return len(dst)
	})
	for name, it := range map[string]Iter[int]{"at": at, "stream": stream} {
		// The first window's offset fits in an int32; the second's does not.
		sub := Split(Split(it, domain.Range{Lo: math.MaxInt32 - 2, Hi: n}), domain.Range{Lo: math.MaxInt32, Hi: math.MaxInt32 + 9})
		var want, ref []int
		for i := 2*math.MaxInt32 - 2; i < 2*math.MaxInt32+7; i++ {
			for j := range i % 3 {
				want = append(want, i%1000*10+j)
			}
		}
		cur := ToStep(sub).Gen()
		for v, ok := cur(); ok; v, ok = cur() {
			ref = append(ref, v)
		}
		if got := ToSlice(sub); !slices.Equal(got, want) || !slices.Equal(ref, want) {
			t.Fatalf("%s: walked %v, ToStep %v, want %v", name, got, ref, want)
		}
		if o, _ := sub.OuterLen(); o != 9 {
			t.Fatalf("%s: outer length %d, want 9", name, o)
		}
	}
}
