package iter

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"triolet/internal/domain"
)

// Consumer-equivalence property: every consumer must produce the result of
// the same consumer re-expressed over ToStep(it). The stepper touches only
// At and Cursor — it is the per-element semantics by construction — so the
// comparison pits every block representation (slice view, kernel, map
// chain, fused reduction, pure filter) against the plain definition without
// any mode to toggle. Floats are compared bit for bit, not within a
// tolerance: the block paths are required to preserve the stepper's
// accumulation order. These tests run under -race in CI (the race job tests
// ./internal/...), which also checks that per-traversal kernel generation
// keeps shared iterators safe.

// probe is the order-sensitive instrumentation the consumers are run with.
type probe[T Number] struct {
	mix    func(acc, v T) T // non-commutative Reduce worker
	bin    func(T) int
	weight func(T) float64
}

var (
	intProbe = probe[int64]{
		mix:    func(acc, v int64) int64 { return acc*31 + v },
		bin:    func(v int64) int { return int(((v % 64) + 64) % 64) },
		weight: func(v int64) float64 { return float64(v) * 0.1 },
	}
	floatProbe = probe[float64]{
		mix:    func(acc, v float64) float64 { return acc*0.999 + v },
		bin:    func(v float64) int { return int(math.Mod(math.Abs(v), 64)) },
		weight: func(v float64) float64 { return v * 0.1 },
	}
)

// obs is one observation of every consumer family over one iterator.
type obs[T Number] struct {
	slice, collect []T
	sum, reduce    T
	count          int
	hist           []int64
	whist          []float64
}

// consume observes it through the package's consumers.
func consume[T Number](it Iter[T], p probe[T]) obs[T] {
	o := obs[T]{
		slice:  ToSlice(it),
		sum:    Sum(it),
		reduce: Reduce(it, 0, p.mix),
		count:  Count(it),
		hist:   Histogram(64, Map(p.bin, it)),
		whist: WeightedHistogram(64, Map(func(v T) Bin[float64] {
			return Bin[float64]{I: p.bin(v), W: p.weight(v)}
		}, it)),
	}
	Collect(it).RunInto(&o.collect)
	return o
}

// stepRef computes the same observation in one pass over ToStep(it).
func stepRef[T Number](it Iter[T], p probe[T]) obs[T] {
	o := obs[T]{hist: make([]int64, 64), whist: make([]float64, 64)}
	cur := ToStep(it).Gen()
	for v, ok := cur(); ok; v, ok = cur() {
		o.slice = append(o.slice, v)
		o.sum += v
		o.reduce = p.mix(o.reduce, v)
		o.count++
		o.hist[p.bin(v)]++
		o.whist[p.bin(v)] += p.weight(v)
	}
	o.collect = o.slice
	return o
}

// sameBits is == for integers and bit equality for floats.
func sameBits[T Number](a, b T) bool {
	switch x := any(a).(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	}
	return a == b
}

func sameSlice[T Number](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diff names the first consumer on which got departs from want, or "".
func (got obs[T]) diff(want obs[T]) string {
	switch {
	case !sameSlice(got.slice, want.slice):
		return fmt.Sprintf("ToSlice: %d elems vs %d", len(got.slice), len(want.slice))
	case !sameSlice(got.collect, want.collect):
		return fmt.Sprintf("Collect: %d elems vs %d", len(got.collect), len(want.collect))
	case !sameBits(got.sum, want.sum):
		return fmt.Sprintf("Sum: %v vs %v", got.sum, want.sum)
	case !sameBits(got.reduce, want.reduce):
		return fmt.Sprintf("Reduce: %v vs %v", got.reduce, want.reduce)
	case got.count != want.count:
		return fmt.Sprintf("Count: %d vs %d", got.count, want.count)
	case !sameSlice(got.hist, want.hist):
		return "Histogram"
	case !sameSlice(got.whist, want.whist):
		return "WeightedHistogram"
	}
	return ""
}

// againstStepper compares every consumer over it — and over every Split of
// it at the offsets splitOffsets generates — with the stepper reference. A
// flat iterator additionally checks the two consumers that exist only for
// indexers: FoldIdx, and FillRange over the whole domain.
func againstStepper[T Number](it Iter[T], p probe[T]) string {
	check := func(it Iter[T]) string {
		want := stepRef(it, p)
		if d := consume(it, p).diff(want); d != "" {
			return d
		}
		if it.kind == KIdxFlat {
			if got := FoldIdx(it.idx, 0, p.mix); !sameBits(got, want.reduce) {
				return fmt.Sprintf("FoldIdx: %v vs %v", got, want.reduce)
			}
			dst := make([]T, it.idx.N)
			FillRange(dst, it, 0)
			if !sameSlice(dst, want.slice) {
				return "FillRange"
			}
		}
		return ""
	}
	if d := check(it); d != "" {
		return d
	}
	if !it.CanSplit() {
		return ""
	}
	n, _ := it.OuterLen()
	for _, r := range splitOffsets(n) {
		if d := check(Split(it, r)); d != "" {
			return fmt.Sprintf("split %v: %s", r, d)
		}
	}
	return ""
}

func TestBlockDriverMatchesPerElementDriver(t *testing.T) {
	prop := func(seed []int16, ops []PipeOp) bool {
		if len(ops) > 6 {
			ops = ops[:6]
		}
		xs := make([]int64, len(seed))
		for i, v := range seed {
			xs[i] = int64(v % 100)
		}
		if _, ok := RefPipeline(xs, ops, 50000); !ok {
			return true // skip exploded concatMap cases
		}
		it := BuildPipeline(xs, ops)
		want := stepRef(it, intProbe)
		if d := consume(it, intProbe).diff(want); d != "" {
			t.Logf("consumers depart from the stepper on %s for ops %+v", d, ops)
			return false
		}
		if it.CanSplit() {
			n, _ := it.OuterLen()
			var split int64
			for _, r := range domain.BlockPartition(n, 3) {
				split += Sum(Split(it, r))
			}
			if split != want.sum {
				t.Logf("split sum %d vs %d for ops %+v", split, want.sum, ops)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Take/Drop/Chain/Scan applied directly over slice-backed producers: Take
// and Drop of a KIdxFlat re-slice the backing array (SliceIdx), Chain of
// two backed indexers builds an At-only seam, and Scan always lowers to a
// stepper — each a distinct fast-path boundary the random generator only
// rarely places first. Every combination must agree with the stepper, at
// the lengths where the block driver switches on and cuts its final block.
func TestBlockDriverSliceBackedTakeDropChainScan(t *testing.T) {
	// Kind bytes: 3=Take(A%40), 4=Drop(A%10), 5=Chain const block, 6=Scan.
	heads := [][]PipeOp{
		{{Kind: 3, A: 37}},
		{{Kind: 4, A: 9}},
		{{Kind: 5, A: 11, B: 200}},
		{{Kind: 6, B: 3}},
		{{Kind: 3, A: 39}, {Kind: 4, A: 7}},
		{{Kind: 4, A: 5}, {Kind: 3, A: 33}},
		{{Kind: 5, A: 1, B: 2}, {Kind: 6, B: 1}},
		{{Kind: 6, B: 2}, {Kind: 3, A: 31}},
		{{Kind: 3, A: 38}, {Kind: 5, A: 4, B: 4}},
		{{Kind: 6, B: 0}, {Kind: 4, A: 6}},
		// And each followed by a map, so the sliced/chained/scanned result
		// feeds a fused stage.
		{{Kind: 3, A: 35}, {Kind: 0, A: 2, B: 3}},
		{{Kind: 4, A: 8}, {Kind: 0, A: 4, B: 1}},
		{{Kind: 5, A: 9, B: 9}, {Kind: 0, A: 1, B: 5}},
		{{Kind: 6, B: 1}, {Kind: 0, A: 3, B: 2}},
	}
	lengths := []int{0, 1, blockMin - 1, blockMin, BlockSize - 1, BlockSize,
		BlockSize + 1, 2*BlockSize - 1, 2 * BlockSize, 777}
	for _, ops := range heads {
		for _, n := range lengths {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(i%101 - 17)
			}
			it := BuildPipeline(xs, ops)
			if d := consume(it, intProbe).diff(stepRef(it, intProbe)); d != "" {
				t.Fatalf("n=%d ops=%+v: consumers depart from the stepper on %s", n, ops, d)
			}
			ref, _ := RefPipeline(xs, ops, 0)
			if got := ToSlice(it); !sameSlice(got, ref) {
				t.Fatalf("n=%d ops=%+v: %d elems vs reference %d", n, ops, len(got), len(ref))
			}
		}
	}
}

// Generator-driven variant: random pipelines constrained to begin with a
// Take/Drop/Chain/Scan over the slice-backed source, then continue with
// arbitrary ops — the compositions around the re-slicing fast paths.
func TestBlockDriverSliceOpsRandomCompositions(t *testing.T) {
	prop := func(seed []int16, head PipeOp, ops []PipeOp) bool {
		head.Kind = 3 + head.Kind%4 // force Take/Drop/Chain/Scan first
		if len(ops) > 4 {
			ops = ops[:4]
		}
		xs := make([]int64, len(seed))
		for i, v := range seed {
			xs[i] = int64(v % 100)
		}
		all := append([]PipeOp{head}, ops...)
		if _, ok := RefPipeline(xs, all, 50000); !ok {
			return true // skip exploded concatMap cases
		}
		it := BuildPipeline(xs, all)
		if d := consume(it, intProbe).diff(stepRef(it, intProbe)); d != "" {
			t.Logf("consumers depart from the stepper on %s for ops %+v", d, all)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// producers is the table's producer axis: one constructor per block
// representation (and per way of composing over one), each over n
// association-sensitive float64 elements so that any fold that leaves the
// stepper's order shows in the last bits.
func producers() map[string]func(n int) Iter[float64] {
	data := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%1013-500) * 0.1
		}
		if n > 0 {
			xs[0] = 1 << 53 // a spike: every later addend rounds
		}
		return xs
	}
	ints := func(n int) []int32 {
		xs := make([]int32, n)
		for i := range xs {
			xs[i] = int32((i*131)%257 - 90)
		}
		return xs
	}
	scale := func(v float64) float64 { return v * 1.1 }
	shift := func(v float64) float64 { return v + 0.7 }
	half := func(v float64) float64 { return v * 0.5 }
	widen := func(v int32) float64 { return float64(v) * 0.3 }
	tab := func(i int) float64 { return float64(i%97)*0.3 - 11 }
	mul := func(a, b float64) float64 { return a*b + 0.1 }
	keep := func(v float64) bool { return int(math.Abs(v)*10)%3 != 0 }
	keep2 := func(v float64) bool { return v > -20 }
	return map[string]func(n int) Iter[float64]{
		"slice":           func(n int) Iter[float64] { return FromSlice(data(n)) },
		"kernel":          func(n int) Iter[float64] { return Map(tab, Range(n)) },
		"map-of-kernel":   func(n int) Iter[float64] { return Map(scale, Map(tab, Range(n))) },
		"chain-1":         func(n int) Iter[float64] { return Map(scale, FromSlice(data(n))) },
		"chain-2":         func(n int) Iter[float64] { return Map(shift, Map(scale, FromSlice(data(n)))) },
		"chain-3":         func(n int) Iter[float64] { return Map(half, Map(shift, Map(scale, FromSlice(data(n))))) },
		"red-map":         func(n int) Iter[float64] { return Map(widen, FromSlice(ints(n))) },
		"red-map-map":     func(n int) Iter[float64] { return Map(scale, Map(widen, FromSlice(ints(n)))) },
		"red-zipwith":     func(n int) Iter[float64] { return ZipWith(mul, FromSlice(data(n)), FromSlice(data(n))) },
		"red-map-zipwith": func(n int) Iter[float64] { return Map(shift, ZipWith(mul, FromSlice(data(n)), FromSlice(data(n)))) },
		"red-map-zip": func(n int) Iter[float64] {
			return Map(func(p Pair[float64, int32]) float64 { return p.Fst * float64(p.Snd) },
				Zip(FromSlice(data(n)), FromSlice(ints(n))))
		},
		// A map stage built over an already restricted producer: the fused
		// builder and the chain must have re-based, not just the kernel.
		"map-of-sliced-zipwith": func(n int) Iter[float64] {
			return Map(shift, Drop(3, ZipWith(mul, FromSlice(data(n)), FromSlice(data(n)))))
		},
		"map-of-sliced-chain": func(n int) Iter[float64] { return Map(shift, Drop(3, Map(scale, FromSlice(data(n))))) },
		"zip-staged":          func(n int) Iter[float64] { return ZipWith(mul, Map(scale, FromSlice(data(n))), FromSlice(data(n))) },
		"pure-filter":         func(n int) Iter[float64] { return Filter(keep, FromSlice(data(n))) },
		"filter-of-kernel":    func(n int) Iter[float64] { return Filter(keep, Map(tab, Range(n))) },
		"filter-of-chain":     func(n int) Iter[float64] { return Filter(keep, Map(scale, FromSlice(data(n)))) },
		"filter-of-filter":    func(n int) Iter[float64] { return Filter(keep2, Filter(keep, FromSlice(data(n)))) },
		"filter-of-filter-of-kernel": func(n int) Iter[float64] {
			return Filter(keep2, Filter(keep, Map(tab, Range(n))))
		},
		"map-of-filter": func(n int) Iter[float64] { return Map(shift, Filter(keep, FromSlice(data(n)))) },
		"widen-of-filter": func(n int) Iter[float64] {
			return Map(widen, Filter(func(v int32) bool { return v%3 != 0 }, FromSlice(ints(n))))
		},
		"at-only-idx": func(n int) Iter[float64] { return IdxFlat(Idx[float64]{N: n, At: tab}) },
		"at-only-fidx": func(n int) Iter[float64] {
			return IdxFilter(FIdx[float64]{N: n, At: func(i int) (float64, bool) { return tab(i), i%4 != 1 }})
		},
	}
}

// The consumer x producer table: every consumer against the stepper over
// every block representation, flat and as the inner loops of a nest, at the
// lengths where the driver switches on (blockMin) and where it cuts its
// final partial block (around BlockSize multiples), whole and under Split.
func TestBlockDriverBoundaryLengths(t *testing.T) {
	lengths := []int{0, 1, blockMin - 1, blockMin, BlockSize - 1, BlockSize + 1, 2*BlockSize + 77}
	for name, mk := range producers() {
		for _, n := range lengths {
			if d := againstStepper(mk(n), floatProbe); d != "" {
				t.Fatalf("%s n=%d: %s", name, n, d)
			}
			// The same producer as a nest's inner loops, between shorter and
			// empty siblings so one arena serves blocks of several sizes.
			nest := IdxNest(IdxOf([]Iter[float64]{mk(n), mk(n / 2), mk(0), mk(n)}))
			if d := againstStepper(nest, floatProbe); d != "" {
				t.Fatalf("nest of %s n=%d: %s", name, n, d)
			}
		}
	}
}
