package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"triolet/internal/domain"
)

// DefaultGrain is the iteration count below which ranges are no longer
// split. Callers tune it per loop; histogram-style loops with tiny bodies
// want larger grains.
const DefaultGrain = 1024

// BlockAlign mirrors iter.BlockSize: split points are snapped down to
// multiples of it so the leaf ranges a parallel loop hands to fused
// consumers stay block-aligned and the block kernels run at full width
// instead of finishing every leaf with a ragged partial block. It is a
// power of two so snapping is a mask. (sched deliberately does not import
// iter; the pairing is asserted by a test on each side.)
const BlockAlign = 256

// alignSplit snaps a proposed split point down to a BlockAlign boundary
// when that keeps both halves non-empty; otherwise the proposal stands.
//
// lo need not itself be aligned: snapping targets absolute multiples of
// BlockAlign, so a sub-range with a ragged base (possible only when a
// ParallelFor seed block is shorter than BlockAlign) realigns at its first
// interior boundary rather than propagating the ragged phase. Coverage is
// unconditionally safe either way — the cut always lands in (lo, mid], so
// both halves stay inside the original range and their union is exact;
// alignment is purely a block-kernel-width optimization. The invariants
// are pinned by TestAlignSplitInvariants and
// TestParallelForExactCoverAdversarialShapes.
func alignSplit(lo, mid int) int {
	if a := mid &^ (BlockAlign - 1); a > lo {
		return a
	}
	return mid
}

// RowGrain returns the grain for a parallel loop whose iteration unit is one
// row of a width-w grid: the smallest row count whose cells span at least
// BlockAlign elements, so row-unit leaves keep feeding full-width block
// kernels. Because the loop counts rows, every split lands on a whole-row
// boundary regardless of where alignSplit snaps — the offset-base contract
// above composes with row units instead of fighting them. Stencil slab
// sweeps rely on this: a leaf never ends mid-row, so a row is written by
// exactly one worker.
func RowGrain(w int) int {
	if w <= 0 || w >= BlockAlign {
		return 1
	}
	return (BlockAlign + w - 1) / w
}

// Pool is a fixed set of worker goroutines executing parallel regions. One
// Pool per virtual node models the node's cores. A Pool is safe for use by
// one region at a time (the node's control goroutine); the paper's
// skeletons likewise run one parallel loop per node at a time, choosing
// sequential implementations for inner nesting levels.
type Pool struct {
	workers int
	regions []chan *region
	wg      sync.WaitGroup
	closed  bool
}

type region struct {
	body      func(worker, lo, hi int)
	grain     int
	n         int
	deques    []*deque
	completed atomic.Int64
	panicked  atomic.Value // first panic value
	finished  chan struct{}
	fin       sync.Once
}

// NewPool starts a pool with the given number of workers (cores).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		panic(fmt.Sprintf("sched: NewPool(%d)", workers))
	}
	p := &Pool{
		workers: workers,
		regions: make([]chan *region, workers),
	}
	for w := range workers {
		p.regions[w] = make(chan *region, 1)
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers. The pool must be idle.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.regions {
		close(ch)
	}
	p.wg.Wait()
}

func (p *Pool) workerLoop(self int) {
	defer p.wg.Done()
	for r := range p.regions[self] {
		p.runRegion(r, self)
	}
}

func (p *Pool) runRegion(r *region, self int) {
	defer func() {
		if pv := recover(); pv != nil {
			// Record the panic and poison the region so every worker and
			// the waiting caller exit promptly.
			r.panicked.CompareAndSwap(nil, pv)
			r.finish()
		}
	}()
	d := r.deques[self]
	for {
		rng, ok := d.popBottom()
		if !ok {
			rng, ok = p.steal(r, self)
		}
		if !ok {
			select {
			case <-r.finished:
				return
			default:
				if r.panicked.Load() != nil {
					return
				}
				runtime.Gosched()
				continue
			}
		}
		// Split oversized ranges, keeping the front and deferring the back
		// half for thieves. Split points snap to block boundaries so leaf
		// ranges run full-width block kernels.
		for rng.Len() > r.grain {
			mid := alignSplit(rng.Lo, rng.Lo+rng.Len()/2)
			d.pushBottom(domain.Range{Lo: mid, Hi: rng.Hi})
			rng.Hi = mid
		}
		r.body(self, rng.Lo, rng.Hi)
		if r.completed.Add(int64(rng.Len())) >= int64(r.n) {
			r.finish()
			return
		}
	}
}

func (r *region) finish() {
	r.fin.Do(func() { close(r.finished) })
}

// steal scans other workers' deques round-robin from self+1.
func (p *Pool) steal(r *region, self int) (domain.Range, bool) {
	for off := 1; off < p.workers; off++ {
		victim := (self + off) % p.workers
		if rng, ok := r.deques[victim].stealTop(); ok {
			return rng, true
		}
	}
	return domain.Range{}, false
}

// ParallelFor executes body over [0, n) using all workers, blocking until
// every iteration has run. body receives the executing worker's index
// (0..Workers-1) — the hook for thread-private accumulators — and a
// half-open range. grain <= 0 selects DefaultGrain. Panics in body are
// re-raised on the caller.
func (p *Pool) ParallelFor(n, grain int, body func(worker, lo, hi int)) {
	if n < 0 {
		panic(fmt.Sprintf("sched: ParallelFor(%d)", n))
	}
	if n == 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	r := &region{
		body:     body,
		grain:    grain,
		n:        n,
		deques:   make([]*deque, p.workers),
		finished: make(chan struct{}),
	}
	for w := range r.deques {
		r.deques[w] = &deque{}
	}
	// Seed each worker's deque with one initial block so stealing starts
	// from an even distribution. Seed boundaries are snapped to BlockAlign
	// like split points, so every leaf range a worker ultimately executes is
	// block-aligned except the loop's ragged tail.
	seeds := domain.BlockPartition(n, p.workers)
	for i := 0; i < len(seeds)-1; i++ {
		cut := alignSplit(seeds[i].Lo, seeds[i].Hi)
		seeds[i].Hi, seeds[i+1].Lo = cut, cut
	}
	for w, blk := range seeds {
		if !blk.Empty() {
			r.deques[w].pushBottom(blk)
		}
	}
	for _, ch := range p.regions {
		ch <- r
	}
	<-r.finished
	// Workers may still be draining their final iteration bookkeeping, but
	// finished only closes after completed >= n or a panic, so results are
	// visible here (channel close is an acquire/release edge).
	if pv := r.panicked.Load(); pv != nil {
		panic(pv)
	}
}

// ParallelReduce computes combine over per-range leaf results. leaf must be
// pure; combine must be associative (per-worker partials are combined in
// an unspecified order). id is the identity of combine.
func ParallelReduce[T any](p *Pool, n, grain int, id T, leaf func(lo, hi int) T, combine func(T, T) T) T {
	partials := make([]T, p.Workers())
	for i := range partials {
		partials[i] = id
	}
	p.ParallelFor(n, grain, func(worker, lo, hi int) {
		partials[worker] = combine(partials[worker], leaf(lo, hi))
	})
	acc := id
	for _, v := range partials {
		acc = combine(acc, v)
	}
	return acc
}

// ParallelForRect executes body over the rectangles of a grid partition of
// dom, one task per rectangle. Used for 2-D block-parallel loops (matrix
// builds) where block locality matters more than fine-grained stealing.
func (p *Pool) ParallelForRect(dom domain.Dim2, body func(worker int, r domain.Rect)) {
	if dom.Empty() {
		return
	}
	// Over-decompose modestly (4 rects per worker) so stealing can balance.
	rects := dom.PowerGrid(4 * p.workers)
	p.ParallelFor(len(rects), 1, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(worker, rects[i])
		}
	})
}
