// Package domain implements the index spaces that Triolet iterators range
// over (the paper's Domain type class, §3.3). A domain describes a set of
// loop indices: Seq is a one-dimensional counted range, Dim2 and Dim3 are
// dense rectangular index spaces. Domains know how to linearize their
// indices, intersect with each other (used by zip), and split themselves
// into blocks (used by the distributed and threaded work partitioners).
package domain

import "fmt"

// Seq is a one-dimensional index domain covering [0, N). It corresponds to
// the paper's "data Seq = Seq Int".
type Seq struct {
	N int
}

// NewSeq returns the 1-D domain of n indices. It panics if n is negative,
// since a domain with negative extent is always a logic error in the caller.
func NewSeq(n int) Seq {
	if n < 0 {
		panic(fmt.Sprintf("domain: negative Seq length %d", n))
	}
	return Seq{N: n}
}

// Size reports the number of indices in the domain.
func (d Seq) Size() int { return d.N }

// Empty reports whether the domain contains no indices.
func (d Seq) Empty() bool { return d.N == 0 }

// Intersect returns the common prefix of two Seq domains. Zipping two
// collections visits the intersection of their domains (paper §3.3).
func (d Seq) Intersect(e Seq) Seq {
	if e.N < d.N {
		return e
	}
	return d
}

func (d Seq) String() string { return fmt.Sprintf("Seq(%d)", d.N) }

// Range is a half-open interval [Lo, Hi) of indices within a Seq domain.
// Work partitioners hand out Ranges; a Range is itself usable as a loop
// bound.
type Range struct {
	Lo, Hi int
}

// NewRange returns the half-open interval [lo, hi), panicking on lo > hi.
func NewRange(lo, hi int) Range {
	if lo > hi {
		panic(fmt.Sprintf("domain: inverted Range [%d,%d)", lo, hi))
	}
	return Range{Lo: lo, Hi: hi}
}

// Len reports the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Empty reports whether the range contains no indices.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Contains reports whether i lies in [Lo, Hi).
func (r Range) Contains(i int) bool { return i >= r.Lo && i < r.Hi }

// Intersect returns the overlap of two ranges (possibly empty).
func (r Range) Intersect(s Range) Range {
	lo := max(r.Lo, s.Lo)
	hi := min(r.Hi, s.Hi)
	if hi < lo {
		hi = lo
	}
	return Range{Lo: lo, Hi: hi}
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Whole returns the range covering the entire domain.
func (d Seq) Whole() Range { return Range{Lo: 0, Hi: d.N} }

// Partition is a partition map: contiguous blocks of [0, n) in index
// order, block i owned by node, slab or task i. Every distributed cut —
// a skeleton's node slices, a stencil's row slabs, a farm's task ranges —
// is one.
type Partition []Range

// Owner reports the block containing index i, or -1 when i lies outside
// the partition. An empty block owns nothing.
func (p Partition) Owner(i int) int {
	// Binary search for the first block ending past i.
	lo, hi := 0, len(p)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); p[m].Hi > i {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(p) || !p[lo].Contains(i) {
		return -1
	}
	return lo
}

// BlockPartition splits [0, n) into p contiguous blocks whose sizes differ
// by at most one. Every index belongs to exactly one block, and blocks are
// returned in index order. p must be positive; n may be zero, in which case
// all blocks are empty. This is the distribution the paper's par skeleton
// applies across nodes, and again across cores within a node.
func BlockPartition(n, p int) Partition {
	if p <= 0 {
		panic(fmt.Sprintf("domain: BlockPartition with p=%d", p))
	}
	if n < 0 {
		panic(fmt.Sprintf("domain: BlockPartition with n=%d", n))
	}
	out := make(Partition, p)
	q, r := n/p, n%p
	lo := 0
	for i := range p {
		size := q
		if i < r {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// ChunkPartition splits [0, n) into contiguous chunks of at most chunk
// indices each. The final chunk may be shorter. chunk must be positive.
// Grain-size control in the work-stealing scheduler uses this.
func ChunkPartition(n, chunk int) Partition {
	if chunk <= 0 {
		panic(fmt.Sprintf("domain: ChunkPartition with chunk=%d", chunk))
	}
	if n == 0 {
		return nil
	}
	out := make(Partition, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		out = append(out, Range{Lo: lo, Hi: min(lo+chunk, n)})
	}
	return out
}
