package iter

import (
	"testing"
	"testing/quick"

	"triolet/internal/domain"
)

// KIdxFilter-specific behaviour: the simplified partial-indexer form of
// Filter over regular input.

func TestFilterComposesPredicates(t *testing.T) {
	it := Filter(func(x int) bool { return x%3 == 0 },
		Filter(func(x int) bool { return x%2 == 0 }, Range(60)))
	if it.Kind() != KIdxFilter {
		t.Fatalf("kind = %v", it.Kind())
	}
	got := ToSlice(it)
	want := []int{0, 6, 12, 18, 24, 30, 36, 42, 48, 54}
	if !eqSlices(got, want) {
		t.Fatalf("composed filter = %v", got)
	}
}

func TestFilterThenMapShortCircuitsRejected(t *testing.T) {
	// Map over a filtered iterator must not apply f to rejected elements.
	applied := 0
	it := Map(func(x int) int { applied++; return x * 10 },
		Filter(func(x int) bool { return x < 3 }, Range(10)))
	got := ToSlice(it)
	if !eqSlices(got, []int{0, 10, 20}) {
		t.Fatalf("map-after-filter = %v", got)
	}
	if applied != 3 {
		t.Fatalf("f applied %d times, want 3", applied)
	}
}

func TestFilteredToStepRestartable(t *testing.T) {
	it := Filter(func(x int) bool { return x%2 == 1 }, Range(10))
	s := ToStep(it)
	if CountStep(s) != 5 || CountStep(s) != 5 {
		t.Fatal("filtered stepper not restartable")
	}
	got := drain(s)
	if !eqSlices(got, []int{1, 3, 5, 7, 9}) {
		t.Fatalf("filtered step order = %v", got)
	}
}

func TestFilteredSplitBounds(t *testing.T) {
	it := Filter(func(x int) bool { return true }, Range(5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Split(it, domain.Range{Lo: 2, Hi: 9})
}

func TestFilteredConcatMapSkipsRejected(t *testing.T) {
	expansions := 0
	it := ConcatMap(func(x int) Iter[int] {
		expansions++
		return Range(x)
	}, Filter(func(x int) bool { return x%2 == 0 }, Range(6)))
	if it.Kind() != KIdxNest {
		t.Fatalf("kind = %v", it.Kind())
	}
	if got := Sum(it); got != 0+(0+1)+(0+1+2+3) {
		t.Fatalf("sum = %d", got)
	}
	if expansions != 3 { // only 0, 2, 4 expand
		t.Fatalf("expanded %d times, want 3", expansions)
	}
}

func TestFilteredEarlyTermination(t *testing.T) {
	// Take over a filtered iterator stops at its last surviving element.
	tested := 0
	it := Filter(func(x int) bool { tested++; return x%7 == 0 }, Range(1000))
	if got := ToSlice(Take(3, it)); !eqSlices(got, []int{0, 7, 14}) {
		t.Fatalf("Take(3) = %v", got)
	}
	if tested > 15 {
		t.Fatalf("predicate ran %d times, want ≤ 15", tested)
	}
}

// Property: filter's partial-indexer form and the literal slice filter
// agree under arbitrary split points, and allocations stay flat.
func TestFilteredSplitEquivalence(t *testing.T) {
	prop := func(xs []int16, p0 uint8) bool {
		p := int(p0%6) + 1
		it := Filter(func(v int16) bool { return v > 0 }, FromSlice(xs))
		var total int64
		n, ok := it.OuterLen()
		if !ok || n != len(xs) {
			return false
		}
		for _, r := range domain.BlockPartition(n, p) {
			total += Reduce(Split(it, r), int64(0), func(a int64, v int16) int64 { return a + int64(v) })
		}
		var want int64
		for _, v := range xs {
			if v > 0 {
				want += int64(v)
			}
		}
		return total == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterAllocationsStayConstant(t *testing.T) {
	// The reason KIdxFilter exists: traversing a fused filter must not
	// allocate per element.
	xs := make([]int64, 10000)
	for i := range xs {
		xs[i] = int64(i)
	}
	it := Filter(func(v int64) bool { return v%2 == 0 },
		Map(func(x int64) int64 { return x * 3 }, FromSlice(xs)))
	allocs := testing.AllocsPerRun(10, func() {
		_ = Sum(it)
	})
	if allocs > 10 {
		t.Fatalf("fused filter-sum allocated %v times per run", allocs)
	}
}
