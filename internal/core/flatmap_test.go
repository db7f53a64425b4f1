package core

import (
	"testing"
	"testing/quick"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/sched"
	"triolet/internal/serial"
)

// primesOp: distributed filter — keep primes from a range of candidates.
// Output length per node is dynamic.
var primesOp = NewFlatMap(
	"test.primes",
	serial.Ints(),
	serial.Unit(),
	serial.Ints(),
	func(n *cluster.Node, candidates []int, _ struct{}) ([]int, error) {
		it := iter.LocalPar(iter.Filter(isPrime, iter.FromSlice(candidates)))
		return CollectLocal(n.Pool, it, 64), nil
	},
	nil,
)

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

func TestDistFlatMapPrimes(t *testing.T) {
	candidates := make([]int, 3000)
	for i := range candidates {
		candidates[i] = i
	}
	var want []int
	for _, c := range candidates {
		if isPrime(c) {
			want = append(want, c)
		}
	}
	for _, cfg := range clusterShapes {
		var got []int
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			out, err := primesOp.Run(s, SliceSource(candidates), struct{}{})
			got = out
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d primes, want %d", cfg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: primes[%d] = %d, want %d (order broken?)", cfg, i, got[i], want[i])
			}
		}
	}
}

func TestFlatMapOpName(t *testing.T) {
	if primesOp.Name() != "test.primes" {
		t.Fatal("name wrong")
	}
}

func TestCollectLocalOrderAndEquivalence(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	prop := func(xs []int16, grain0 uint8) bool {
		grain := int(grain0%64) + 1
		mk := func(hint bool) iter.Iter[int16] {
			it := iter.Filter(func(v int16) bool { return v%3 == 0 }, iter.FromSlice(xs))
			if hint {
				it = iter.LocalPar(it)
			}
			return it
		}
		seq := iter.ToSlice(mk(false))
		par := CollectLocal(pool, mk(true), grain)
		if len(seq) != len(par) {
			return false
		}
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

func TestCollectLocalIrregularNest(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	// concatMap with wildly varying inner sizes.
	it := iter.LocalPar(iter.ConcatMap(func(x int) iter.Iter[int] {
		return iter.Range(x % 17)
	}, iter.Range(500)))
	got := CollectLocal(pool, it, 16)
	want := iter.ToSlice(iter.ConcatMap(func(x int) iter.Iter[int] {
		return iter.Range(x % 17)
	}, iter.Range(500)))
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestCollectLocalFallbacks(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	// Sequential hint → sequential path.
	it := iter.Filter(func(x int) bool { return x%2 == 0 }, iter.Range(10))
	if got := CollectLocal(pool, it, 4); len(got) != 5 || got[4] != 8 {
		t.Fatalf("sequential fallback = %v", got)
	}
	// Stepper (unsplittable) → sequential path even with hint.
	step := iter.LocalPar(iter.StepFlat(iter.StepOf([]int{7, 8})))
	if got := CollectLocal(pool, step, 4); len(got) != 2 || got[1] != 8 {
		t.Fatalf("stepper fallback = %v", got)
	}
	// nil pool → sequential path.
	if got := CollectLocal[int](nil, iter.LocalPar(iter.Range(3)), 4); len(got) != 3 {
		t.Fatalf("nil pool = %v", got)
	}
}
