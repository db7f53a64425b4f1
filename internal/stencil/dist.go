package stencil

import (
	"fmt"
	"slices"
	"sync"

	"triolet/internal/cluster"
	"triolet/internal/core"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/sched"
	"triolet/internal/serial"
)

// haloTag carries halo-exchange payloads. It lives in its own region of the
// user tag space, below cluster's control tag (MaxUserTag) and farm-engine
// tags (MaxUserTag-1..-3).
const haloTag = mpi.MaxUserTag - 16

// Partition is the row-slab partition map of an h×w grid over a fixed rank
// count. Every rank derives the identical map from (h, w, ranks) alone —
// following the distributed-ranges model, the distribution owns the map and
// halo exchange plans are computed locally, with no negotiation traffic.
// Slabs are contiguous and cover [0, h); when ranks exceed rows, trailing
// slabs are empty and their ranks sit the exchange out.
type Partition struct {
	H, W int
	Rows domain.Partition // one half-open row range per rank, in rank order
}

// NewPartition block-partitions the h rows of an h×w grid over ranks.
func NewPartition(h, w, ranks int) Partition {
	return Partition{H: h, W: w, Rows: domain.BlockPartition(h, ranks)}
}

// ghostRows lists, in slot order, the global source row filling each ghost
// slot of rank's slab: first the radius rows above it (covering
// [Lo-radius, Lo)), then the radius rows below ([Hi, Hi+radius)). A source
// of -1 means the slot needs no remote data: it resolves to the border
// constant, or — under Normal — is never read. Out-of-grid slots map
// through the boundary strategy, so under Wrap or Mirror a slot's source
// can be any row of the grid, not just an adjacent slab's: radius ≥ slab
// height and single-slab self-sources fall out of the same arithmetic.
func ghostRows(p Partition, rank, radius int, b Boundary) []int {
	own := p.Rows[rank]
	if own.Empty() || radius == 0 {
		return nil
	}
	srcs := make([]int, 0, 2*radius)
	for k := 0; k < radius; k++ {
		srcs = append(srcs, mapRow(own.Lo-radius+k, p.H, b))
	}
	for k := 0; k < radius; k++ {
		srcs = append(srcs, mapRow(own.Hi+k, p.H, b))
	}
	return srcs
}

func mapRow(y, n int, b Boundary) int {
	if m, ok := mapIndex(y, n, b); ok {
		return m
	}
	return -1
}

// haloPlan is one rank's precomputed exchange schedule. Sender and receiver
// derive matching plans from the shared partition map: rank i's sendTo[j]
// lists exactly the rows rank j's recvFrom[i] expects, in the same order.
type haloPlan struct {
	// sendTo[j] lists this rank's own global rows that fill rank j's ghost
	// slots, in j's slot order.
	sendTo [][]int
	// recvFrom[i] lists this rank's ghost slots filled by rank i's rows,
	// in slot order (slots 0..radius-1 top, radius..2radius-1 bottom).
	recvFrom [][]int
	// local lists {slot, srcRow} pairs this rank resolves from its own
	// rows (wrap/mirror wrapping back into the same slab).
	local [][2]int
	// borderSlots lists slots with no source row: border-constant fills,
	// or never-read slots under Normal.
	borderSlots []int
}

func newHaloPlan(p Partition, rank, radius int, b Boundary) haloPlan {
	n := len(p.Rows)
	pl := haloPlan{sendTo: make([][]int, n), recvFrom: make([][]int, n)}
	own := p.Rows[rank]
	for j := 0; j < n; j++ {
		if j == rank {
			continue
		}
		for _, src := range ghostRows(p, j, radius, b) {
			if src >= 0 && own.Contains(src) {
				pl.sendTo[j] = append(pl.sendTo[j], src)
			}
		}
	}
	for slot, src := range ghostRows(p, rank, radius, b) {
		switch {
		case src < 0:
			pl.borderSlots = append(pl.borderSlots, slot)
		case own.Contains(src):
			pl.local = append(pl.local, [2]int{slot, src})
		default:
			o := p.Rows.Owner(src)
			pl.recvFrom[o] = append(pl.recvFrom[o], slot)
		}
	}
	return pl
}

// Slab is one rank's share of a distributed stencil grid. Each generation is
// one padded buffer — radius ghost rows covering [Lo-radius, Lo), the owned
// rows, radius ghost rows covering [Hi, Hi+radius) — so rows next to a ghost
// are interior rows. Front (the sweeper's window), back and exchange scratch
// are allocated once, or reused from a spare; then only the wire encoding allocates.
type Slab[T any] struct {
	Part Partition
	Rank int

	elems   serial.Codec[[]T]
	sw      sweeper[T] // reads the front buffer, the current generation
	back    []T
	plan    haloPlan
	scratch []T
}

// NewSlab builds rank's slab from its share of the grid (rows is copied,
// len must be Part.Rows[rank].Len()×W) in newly allocated buffers. elems is
// the wire codec for halo and gather payloads.
func NewSlab[T any](part Partition, rank int, par Params[T], elems serial.Codec[[]T], rows []T) (*Slab[T], error) {
	return fillSlab(part, rank, par, elems, new(slabPool[T]), rows)
}

// fillSlab is NewSlab in a double buffer from pool when it has one of the size.
func fillSlab[T any](part Partition, rank int, par Params[T], elems serial.Codec[[]T], pool *slabPool[T], rows []T) (*Slab[T], error) {
	s, err := newSlab(part, rank, par, elems, pool, nil)
	if err == nil && len(rows) != len(s.Rows()) {
		return nil, fmt.Errorf("stencil: slab %d got %d cells for %d rows of width %d", rank, len(rows), s.sw.nRows, part.W)
	} else if err == nil {
		copy(s.Rows(), rows)
	}
	return s, err
}

// newSlab is NewSlab with the owned rows left for the caller to fill, in a
// double buffer from pool when it has one of the size (its cells are all
// rewritten before they are read: owned rows by the caller, ghosts by every
// exchange), and with plan as its halo plan unless that is nil.
func newSlab[T any](part Partition, rank int, par Params[T], elems serial.Codec[[]T], pool *slabPool[T], plan *haloPlan) (*Slab[T], error) {
	if err := par.check(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= len(part.Rows) {
		return nil, fmt.Errorf("stencil: slab rank %d of %d", rank, len(part.Rows))
	}
	own, pad := part.Rows[rank], par.Radius
	if plan == nil {
		p := newHaloPlan(part, rank, par.Radius, par.Boundary)
		plan = &p
	}
	var front, back, scratch []T
	n := (own.Len() + 2*pad) * part.W
	if spare := pool.take(n); spare != nil {
		front, back, scratch = spare.sw.buf, spare.back, spare.scratch[:0]
	} else {
		front, back = make([]T, n), make([]T, n)
	}
	s := &Slab[T]{
		Part:    part,
		Rank:    rank,
		elems:   elems,
		sw:      newSweeper(par, front, part.H, part.W, own.Lo, own.Len(), pad),
		back:    back,
		plan:    *plan,
		scratch: scratch,
	}
	// Border-constant slots never change: fill once, in both generations.
	// (Under Normal a sourceless slot is never read.)
	if par.Boundary == Border {
		for _, slot := range s.plan.borderSlots {
			for _, buf := range [][]T{front, s.back} {
				row := s.slotRow(buf, slot)
				for i := range row {
					row[i] = par.Border
				}
			}
		}
	}
	return s, nil
}

// slabPool holds an op's spare slabs: evicted, so no node holds them, kept
// for their double buffers (a sync.Pool would drop them at every GC).
type slabPool[T any] struct {
	mu    sync.Mutex
	spare []*Slab[T]
}

// take removes and returns a spare whose buffers hold n cells, or nil.
func (p *slabPool[T]) take(n int) (s *Slab[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.IndexFunc(p.spare, func(s *Slab[T]) bool { return len(s.back) == n }); i >= 0 {
		s = p.spare[i]
		p.spare = slices.Delete(p.spare, i, i+1)
	}
	return s
}

// evict moves n's slab under key, if any, to the pool, which keeps the newest bound.
func (p *slabPool[T]) evict(n *cluster.Node, key cluster.SegKey, bound int) {
	if s, ok := n.Segs[key].(interface{ slab() *Slab[T] }); ok {
		delete(n.Segs, key)
		p.mu.Lock()
		p.spare = append(slices.Delete(p.spare, 0, max(0, len(p.spare)+1-bound)), s.slab())
		p.mu.Unlock()
	}
}

func (s *Slab[T]) slab() *Slab[T] { return s } // evict takes a Slab or a residentSlab

// Rows returns the slab's current generation (owned rows, no ghosts). The
// slice is the live front buffer; it is valid until the next Sweep.
func (s *Slab[T]) Rows() []T { return s.owned(s.sw.buf) }

// owned returns the owned rows of a padded generation buffer.
func (s *Slab[T]) owned(buf []T) []T { return buf[s.sw.pad*s.Part.W:][:s.sw.nRows*s.Part.W] }

// slotRow returns ghost slot's row of a padded buffer (pad above, then below).
func (s *Slab[T]) slotRow(buf []T, slot int) []T {
	w, row := s.Part.W, slot
	if slot >= s.sw.radius {
		row += s.sw.nRows
	}
	return buf[row*w : (row+1)*w]
}

// ownRow returns the front-buffer row at global index y.
func (s *Slab[T]) ownRow(y int) []T { return s.sw.buf[(y-s.sw.rowLo+s.sw.pad)*s.Part.W:][:s.Part.W] }

// ExchangeHalos refreshes the slab's ghost rows from the cluster's current
// front buffers. Every rank with a non-empty plan must call it once per
// sweep; the fabric buffers sends, so posting all sends before any receive
// cannot deadlock. One message per peer per direction carries the peer's
// needed rows concatenated in its slot order, encoded with the slab's
// element codec; the payload is attributed to Stats.HaloBytes via SendHalo,
// which takes it by reference: each is a fresh encoding, never written
// again, so a halo costs its encoding and no second copy.
func (s *Slab[T]) ExchangeHalos(c *mpi.Comm) error {
	if err := s.postHalos(c); err != nil {
		return err
	}
	return s.finishHalos(c)
}

// selfHalos fills the ghost slots whose source is one of the slab's own rows.
func (s *Slab[T]) selfHalos() {
	for _, lr := range s.plan.local {
		copy(s.slotRow(s.sw.buf, lr[0]), s.ownRow(lr[1]))
	}
}

// postHalos is the exchange's first half: self-sourced ghosts, then every
// send. It only reads owned rows.
func (s *Slab[T]) postHalos(c *mpi.Comm) error {
	s.selfHalos()
	for j, rows := range s.plan.sendTo {
		if len(rows) == 0 {
			continue
		}
		buf := s.scratch[:0]
		for _, y := range rows {
			buf = append(buf, s.ownRow(y)...)
		}
		s.scratch = buf
		if err := c.SendHalo(j, haloTag, serial.Marshal(s.elems, buf)); err != nil {
			return fmt.Errorf("stencil: halo send %d→%d: %w", s.Rank, j, err)
		}
	}
	return nil
}

// finishHalos is the second half: every receive, written into the front
// buffer's ghost rows — no owned row, so rows whose window reaches no ghost
// can be swept between the halves.
func (s *Slab[T]) finishHalos(c *mpi.Comm) error {
	for i, slots := range s.plan.recvFrom {
		if len(slots) == 0 {
			continue
		}
		m, err := c.Recv(i, haloTag)
		if err != nil {
			return fmt.Errorf("stencil: halo recv %d←%d: %w", s.Rank, i, err)
		}
		r, n := serial.NewReader(m.Payload), len(slots)*s.Part.W
		s.scratch = slices.Grow(s.scratch[:0], n)[:n]
		if serial.DecodeInto(s.elems, r, s.scratch); r.Err() != nil || r.Remaining() != 0 {
			return fmt.Errorf("stencil: halo payload %d←%d of %d bytes is not %d slots (%v)",
				s.Rank, i, len(m.Payload), len(slots), r.Err())
		}
		s.fillSlots(slots, s.scratch)
	}
	return nil
}

// fillSlots copies cells, one row per slot in slot order, into the front
// buffer's ghost slots.
func (s *Slab[T]) fillSlots(slots []int, cells []T) {
	for k, slot := range slots {
		copy(s.slotRow(s.sw.buf, slot), cells[k*s.Part.W:])
	}
}

// Sweep advances the slab one generation on the node's pool: back's owned
// rows are written from the front buffer as ExchangeHalos just refreshed
// it, then the buffers swap roles. A sweep writes only the back buffer, so
// it can never alias an exchanged halo.
func (s *Slab[T]) Sweep(pool *sched.Pool, fn Func[T]) {
	s.sw.run(pool, fn, s.owned(s.back), 0, s.sw.nRows)
	s.sw.buf, s.back = s.back, s.sw.buf
}

// step is one iteration with the exchange hidden behind the interior: post
// the sends, sweep the rows that read no ghost while the halos are on the
// wire, receive, sweep the radius rows at each end. A slab of at most
// 2·radius rows has no interior and sweeps everything after the receive.
func (s *Slab[T]) step(c *mpi.Comm, pool *sched.Pool, fn Func[T]) error {
	n, out := s.sw.nRows, s.owned(s.back)
	lo, hi := s.sw.radius, n-s.sw.radius
	if lo >= hi {
		lo, hi = 0, 0
	}
	if err := s.postHalos(c); err != nil {
		return err
	}
	s.sw.run(pool, fn, out, lo, hi)
	if err := s.finishHalos(c); err != nil {
		return err
	}
	s.sw.run(pool, fn, out, 0, lo)
	s.sw.run(pool, fn, out, hi, n)
	s.sw.buf, s.back = s.back, s.sw.buf
	return nil
}

// Op is a registered distributed stencil kernel: an instance of core's
// FlatMap skeleton whose source is the grid's rows, whose aux is a header
// (shape, iterations, Params) and whose kernel iterates Slab.step — each
// exchange overlapped with the interior sweep — over the rank's row slab;
// the final generation is gathered back. Register once at init — one
// registration serves every grid shape, radius, and boundary strategy,
// which travel in the header. Slabs outlive runs in the op's pool (release).
type Op[T any] struct {
	elem  serial.Codec[T]
	elems serial.Codec[[]T]
	fn    Func[T]
	dist  *core.FlatMapOp[[]T, opHeader[T], T]
	pool  slabPool[T]
}

// NewOp registers the distributed stencil kernel "stencil.<name>".
func NewOp[T any](name string, elem serial.Codec[T], elems serial.Codec[[]T], fn Func[T]) *Op[T] {
	op := &Op[T]{elem: elem, elems: elems, fn: fn}
	op.dist = core.NewFlatMap("stencil."+name, elems, op.hdrCodec(), elems, op.iterate, op.release)
	return op
}

// Name reports the kernel's registered name.
func (op *Op[T]) Name() string { return op.dist.Name() }

// Fn returns the kernel function, so callers can run the same kernel
// locally.
func (op *Op[T]) Fn() Func[T] { return op.fn }

type opHeader[T any] struct {
	h, w, iters int
	par         Params[T]
}

func (op *Op[T]) hdrCodec() serial.Codec[opHeader[T]] {
	return serial.Funcs[opHeader[T]]{
		Enc: func(w *serial.Writer, v opHeader[T]) {
			w.Int(v.h)
			w.Int(v.w)
			w.Int(v.iters)
			w.Int(v.par.Radius)
			w.U8(uint8(v.par.Boundary))
			op.elem.Encode(w, v.par.Border)
		},
		Dec: func(r *serial.Reader) opHeader[T] {
			var v opHeader[T]
			v.h, v.w, v.iters = r.Int(), r.Int(), r.Int()
			v.par.Radius = r.Int()
			v.par.Boundary = Boundary(r.U8())
			v.par.Border = op.elem.Decode(r)
			return v
		},
	}
}

// iterate is the skeleton's kernel: every rank sweeps its slab hdr.iters
// times. The partition it derives from the header is the one the skeleton
// cut rows by — both block-partition hdr.h rows over the nodes.
func (op *Op[T]) iterate(n *cluster.Node, rows []T, hdr opHeader[T]) ([]T, error) {
	part := NewPartition(hdr.h, hdr.w, n.Nodes())
	sl, err := fillSlab(part, n.Rank(), hdr.par, op.elems, &op.pool, rows)
	if err != nil {
		return nil, err
	}
	for i := 0; i < hdr.iters; i++ {
		if err := sl.step(n.Comm, n.Pool, op.fn); err != nil {
			return nil, err
		}
	}
	if n.Segs == nil {
		n.Segs = make(map[cluster.SegKey]any)
	}
	n.Segs[cluster.SegKey{Kernel: op.Name()}] = sl
	return sl.Rows(), nil
}

// release moves the slab iterate left in the node's store to the pool once the
// skeleton has consumed its rows. A failed run's stays: the next run replaces it.
func (op *Op[T]) release(n *cluster.Node, _ []T) {
	op.pool.evict(n, cluster.SegKey{Kernel: op.Name()}, n.Nodes())
}

// Run executes iters sweeps of the stencil over g on the whole cluster and
// returns the final grid; g is not modified. Call from the master.
func (op *Op[T]) Run(s *cluster.Session, g iter.Matrix2[T], par Params[T], iters int) (iter.Matrix2[T], error) {
	var zero iter.Matrix2[T]
	if err := (Stencil[T]{Params: par, Fn: op.fn}).check(); err != nil {
		return zero, err
	}
	if len(g.Data) != g.H*g.W {
		return zero, fmt.Errorf("stencil: %dx%d grid with %d cells", g.H, g.W, len(g.Data))
	}
	rows := core.FuncSource[[]T]{
		N:       g.H,
		SliceFn: func(r domain.Range) []T { return g.Data[r.Lo*g.W : r.Hi*g.W] },
	}
	data, err := op.dist.Run(s, rows, opHeader[T]{h: g.H, w: g.W, iters: iters, par: par})
	if err != nil {
		return zero, err
	}
	if len(data) != g.H*g.W {
		return zero, fmt.Errorf("%s gather: %d cells for %dx%d grid", op.Name(), len(data), g.H, g.W)
	}
	return iter.Matrix2[T]{H: g.H, W: g.W, Data: data}, nil
}
