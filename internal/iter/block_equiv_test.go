package iter

import (
	"testing"
	"testing/quick"

	"triolet/internal/domain"
)

// Driver-equivalence property: every consumer must produce bit-identical
// results whether it runs through the block engine or the per-element
// driver. blockDriverEnabled gates every block fast path, so running the
// same random pipeline under both settings compares the two drivers
// directly. Float sums are compared with ==, not a tolerance: the block
// driver is required to preserve the per-element accumulation order, so
// even floating-point folds must agree to the last bit. This test runs
// under -race in CI (the race job tests ./internal/...), which also checks
// that per-traversal kernel generation keeps shared iterators safe.

// runConsumers evaluates every gated consumer over it.
type driverObs struct {
	slice []int64
	sum   int64
	fsum  float64
	count int
	hist  []int64
	whist []float64
	split int64
	ok    bool // split observed
}

func observeDrivers(it Iter[int64]) driverObs {
	o := driverObs{
		slice: ToSlice(it),
		sum:   Sum(it),
		count: Count(it),
	}
	o.fsum = Sum(Map(func(v int64) float64 { return float64(v) * 0.1 }, it))
	o.hist = Histogram(64, Map(func(v int64) int { return int(((v % 64) + 64) % 64) }, it))
	o.whist = WeightedHistogram(64, Map(func(v int64) Bin[float64] {
		return Bin[float64]{I: int(((v % 64) + 64) % 64), W: float64(v) * 0.1}
	}, it))
	if it.CanSplit() {
		n, _ := it.OuterLen()
		for _, r := range domain.BlockPartition(n, 3) {
			o.split += Sum(Split(it, r))
		}
		o.ok = true
	}
	return o
}

func TestBlockDriverMatchesPerElementDriver(t *testing.T) {
	defer SetBlockDriver(true)
	prop := func(seed []int16, ops []PipeOp) bool {
		if len(ops) > 6 {
			ops = ops[:6]
		}
		xs := make([]int64, len(seed))
		for i, v := range seed {
			xs[i] = int64(v % 100)
		}
		it := FromSlice(xs)
		ref := xs
		for _, op := range ops {
			it = ApplyPipeOp(op, it)
			ref = ApplyPipeOpRef(op, ref)
			if len(ref) > 50000 {
				return true // skip exploded concatMap cases
			}
		}

		blockDriverEnabled = true
		blocked := observeDrivers(it)
		blockDriverEnabled = false
		scalar := observeDrivers(it)
		blockDriverEnabled = true

		if len(blocked.slice) != len(scalar.slice) {
			t.Logf("ToSlice length %d (block) vs %d (per-element) for ops %+v",
				len(blocked.slice), len(scalar.slice), ops)
			return false
		}
		for i := range scalar.slice {
			if blocked.slice[i] != scalar.slice[i] {
				t.Logf("ToSlice[%d] = %d (block) vs %d (per-element) for ops %+v",
					i, blocked.slice[i], scalar.slice[i], ops)
				return false
			}
		}
		if blocked.sum != scalar.sum || blocked.count != scalar.count {
			t.Logf("sum/count %d/%d vs %d/%d for ops %+v",
				blocked.sum, blocked.count, scalar.sum, scalar.count, ops)
			return false
		}
		if blocked.fsum != scalar.fsum {
			t.Logf("float sum %v (block) vs %v (per-element): accumulation order diverged for ops %+v",
				blocked.fsum, scalar.fsum, ops)
			return false
		}
		for b := range scalar.hist {
			if blocked.hist[b] != scalar.hist[b] {
				t.Logf("hist[%d] = %d vs %d for ops %+v", b, blocked.hist[b], scalar.hist[b], ops)
				return false
			}
			if blocked.whist[b] != scalar.whist[b] {
				t.Logf("whist[%d] = %v vs %v for ops %+v", b, blocked.whist[b], scalar.whist[b], ops)
				return false
			}
		}
		if blocked.ok != scalar.ok || blocked.split != scalar.split {
			t.Logf("split sum %d vs %d for ops %+v", blocked.split, scalar.split, ops)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// observeEqual compares the two drivers over it and reports the first
// diverging consumer, or "" when they agree on everything.
func observeEqual(it Iter[int64]) string {
	SetBlockDriver(true)
	blocked := observeDrivers(it)
	SetBlockDriver(false)
	scalar := observeDrivers(it)
	SetBlockDriver(true)

	if len(blocked.slice) != len(scalar.slice) {
		return "ToSlice length"
	}
	for i := range scalar.slice {
		if blocked.slice[i] != scalar.slice[i] {
			return "ToSlice element"
		}
	}
	if blocked.sum != scalar.sum {
		return "Sum"
	}
	if blocked.count != scalar.count {
		return "Count"
	}
	if blocked.fsum != scalar.fsum {
		return "float Sum"
	}
	for b := range scalar.hist {
		if blocked.hist[b] != scalar.hist[b] {
			return "Histogram"
		}
		if blocked.whist[b] != scalar.whist[b] {
			return "WeightedHistogram"
		}
	}
	if blocked.ok != scalar.ok || blocked.split != scalar.split {
		return "split Sum"
	}
	return ""
}

// Take/Drop/Chain/Scan applied directly over slice-backed producers: Take
// and Drop of a KIdxFlat re-slice the backing array (SliceIdx), Chain of
// two backed indexers builds an At-only seam, and Scan always lowers to a
// stepper — each a distinct fast-path boundary the random generator only
// rarely places first. Every combination must agree across drivers, at the
// lengths where the block driver switches on and cuts its final block.
func TestBlockDriverSliceBackedTakeDropChainScan(t *testing.T) {
	defer SetBlockDriver(true)
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
			if field := observeEqual(it); field != "" {
				t.Fatalf("n=%d ops=%+v: drivers diverge on %s", n, ops, field)
			}
			ref, _ := RefPipeline(xs, ops, 0)
			got := ToSlice(it)
			if len(got) != len(ref) {
				t.Fatalf("n=%d ops=%+v: length %d vs ref %d", n, ops, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d ops=%+v: element %d: %d vs %d", n, ops, i, got[i], ref[i])
				}
			}
		}
	}
}

// Generator-driven variant: random pipelines constrained to begin with a
// Take/Drop/Chain/Scan over the slice-backed source, then continue with
// arbitrary ops — the compositions around the re-slicing fast paths.
func TestBlockDriverSliceOpsRandomCompositions(t *testing.T) {
	defer SetBlockDriver(true)
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
		if field := observeEqual(BuildPipeline(xs, all)); field != "" {
			t.Logf("drivers diverge on %s for ops %+v", field, all)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// The boundary cases quick.Check rarely lands on exactly: lengths around
// blockMin and around BlockSize multiples, where the block driver switches
// on and where its final partial block is cut.
func TestBlockDriverBoundaryLengths(t *testing.T) {
	defer func() { blockDriverEnabled = true }()
	lengths := []int{0, 1, blockMin - 1, blockMin, blockMin + 1,
		BlockSize - 1, BlockSize, BlockSize + 1, 2*BlockSize - 1, 2 * BlockSize, 1000}
	for _, n := range lengths {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i%97 - 13)
		}
		it := Filter(func(v int64) bool { return v%3 != 0 },
			Map(func(v int64) int64 { return v*5 + 1 }, FromSlice(xs)))

		blockDriverEnabled = true
		gotSlice, gotSum, gotCount := ToSlice(it), Sum(it), Count(it)
		blockDriverEnabled = false
		wantSlice, wantSum, wantCount := ToSlice(it), Sum(it), Count(it)
		blockDriverEnabled = true

		if gotSum != wantSum || gotCount != wantCount || len(gotSlice) != len(wantSlice) {
			t.Fatalf("n=%d: block driver sum/count/len %d/%d/%d vs %d/%d/%d",
				n, gotSum, gotCount, len(gotSlice), wantSum, wantCount, len(wantSlice))
		}
		for i := range wantSlice {
			if gotSlice[i] != wantSlice[i] {
				t.Fatalf("n=%d: element %d: %d vs %d", n, i, gotSlice[i], wantSlice[i])
			}
		}
	}
}
