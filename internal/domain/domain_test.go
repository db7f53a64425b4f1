package domain

import (
	"testing"
	"testing/quick"
)

func TestNewSeq(t *testing.T) {
	d := NewSeq(5)
	if d.Size() != 5 {
		t.Fatalf("Size = %d, want 5", d.Size())
	}
	if d.Empty() {
		t.Fatal("Seq(5) reported empty")
	}
	if !NewSeq(0).Empty() {
		t.Fatal("Seq(0) not empty")
	}
}

func TestNewSeqNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeq(-1) did not panic")
		}
	}()
	NewSeq(-1)
}

func TestSeqIntersect(t *testing.T) {
	a, b := NewSeq(3), NewSeq(7)
	if got := a.Intersect(b); got.N != 3 {
		t.Fatalf("Intersect = %v, want Seq(3)", got)
	}
	if got := b.Intersect(a); got.N != 3 {
		t.Fatalf("Intersect reversed = %v, want Seq(3)", got)
	}
}

func TestSeqWhole(t *testing.T) {
	if got := NewSeq(4).Whole(); got != (Range{0, 4}) {
		t.Fatalf("Whole = %v", got)
	}
}

func TestRangeBasics(t *testing.T) {
	r := NewRange(2, 5)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Empty() {
		t.Fatal("non-empty range reported empty")
	}
	if !r.Contains(2) || !r.Contains(4) || r.Contains(5) || r.Contains(1) {
		t.Fatal("Contains wrong at boundaries")
	}
}

func TestRangeInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRange(5,2) did not panic")
		}
	}()
	NewRange(5, 2)
}

func TestRangeIntersect(t *testing.T) {
	cases := []struct{ a, b, want Range }{
		{Range{0, 5}, Range{3, 8}, Range{3, 5}},
		{Range{0, 5}, Range{5, 8}, Range{5, 5}},
		{Range{0, 5}, Range{7, 8}, Range{7, 7}},
		{Range{2, 9}, Range{0, 100}, Range{2, 9}},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if got.Len() != c.want.Len() || (!got.Empty() && got != c.want) {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: a block partition covers [0,n) exactly once, in order, with
// block sizes differing by at most one.
func TestBlockPartitionProperties(t *testing.T) {
	prop := func(n0, p0 uint16) bool {
		n := int(n0 % 2000)
		p := int(p0%64) + 1
		blocks := BlockPartition(n, p)
		if len(blocks) != p {
			return false
		}
		prev := 0
		minLen, maxLen := 1<<30, -1
		for _, b := range blocks {
			if b.Lo != prev || b.Hi < b.Lo {
				return false
			}
			prev = b.Hi
			l := b.Len()
			minLen = min(minLen, l)
			maxLen = max(maxLen, l)
		}
		return prev == n && maxLen-minLen <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPartitionEdge(t *testing.T) {
	// n == 0: all blocks empty.
	for _, b := range BlockPartition(0, 4) {
		if !b.Empty() {
			t.Fatalf("empty partition produced non-empty block %v", b)
		}
	}
	// p > n: exactly n singleton blocks, rest empty.
	blocks := BlockPartition(3, 5)
	nonEmpty := 0
	for _, b := range blocks {
		if !b.Empty() {
			nonEmpty++
			if b.Len() != 1 {
				t.Fatalf("expected singleton, got %v", b)
			}
		}
	}
	if nonEmpty != 3 {
		t.Fatalf("nonEmpty = %d, want 3", nonEmpty)
	}
}

func TestBlockPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BlockPartition(4, 0) },
		func() { BlockPartition(-1, 2) },
		func() { ChunkPartition(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: a chunk partition covers [0,n) exactly, every chunk except
// possibly the last has exactly `chunk` indices.
func TestChunkPartitionProperties(t *testing.T) {
	prop := func(n0, c0 uint16) bool {
		n := int(n0 % 3000)
		chunk := int(c0%100) + 1
		chunks := ChunkPartition(n, chunk)
		prev := 0
		for i, c := range chunks {
			if c.Lo != prev || c.Empty() {
				return false
			}
			if i < len(chunks)-1 && c.Len() != chunk {
				return false
			}
			if c.Len() > chunk {
				return false
			}
			prev = c.Hi
		}
		return prev == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkPartitionZero(t *testing.T) {
	if got := ChunkPartition(0, 8); got != nil {
		t.Fatalf("ChunkPartition(0,8) = %v, want nil", got)
	}
}

// Property: over every partition constructor, Owner maps each i in [0, n)
// to the one block that contains it — so never to an empty block, even
// when n < p leaves trailing blocks empty — and maps i < 0 or i >= n to -1.
func TestPartitionOwner(t *testing.T) {
	prop := func(n0, p0, a0 uint16) bool {
		n := int(n0 % 300)
		p := int(p0%40) + 1
		align := int(a0%20) + 1
		for _, part := range []Partition{
			BlockPartition(n, p),
			ChunkPartition(n, align),
		} {
			for i := range n {
				k := part.Owner(i)
				if k < 0 || !part[k].Contains(i) {
					return false
				}
				for j, r := range part {
					if j != k && r.Contains(i) {
						return false
					}
				}
			}
			for _, i := range []int{-1 - n, -1, n, n + 1, n + p} {
				if part.Owner(i) != -1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
