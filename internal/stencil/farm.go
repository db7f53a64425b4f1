package stencil

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/serial"
)

// FarmOp runs the iterated stencil as a sequence of Session.Farm rounds —
// one farm job per sweep, one task per slab — trading the collectives' lower
// overhead for the farm's whole fault-tolerance stack: worker-loss
// reassignment, per-task retry, and WAL checkpoint/resume. Between the sweeps
// of an epoch (see Run) a slab stays on the node that swept it, as a Slab in
// the node's segment store, and tasks carry only the ghost rows its
// neighbours produced, relayed by the master. The ghost sections are
// attributed as halo bytes at task-build time (provisioned halo volume: a
// task may run on the master without crossing the fabric).
type FarmOp[T any] struct {
	name  string
	elem  serial.Codec[T]
	elems serial.Codec[[]T]
	fn    Func[T]
	runs  atomic.Uint32     // Run calls so far; the number stamps a run's frames and names its resident slabs
	pool  slabPool[T]       // evicted slabs, whose buffers the next inline frames of their size reuse
	mu    sync.Mutex        // guards the fields below
	free  [][]serial.Writer // runs' frame and answer writers no run holds, kept grown for the next run
	shape farmHeader        // the latest task shape: its h, w, slabs, radius and boundary; its
	part  Partition         // partition; and, while slabs² ≤ farmBudget, each slab's geometry
	geo   []*slabGeo        // from the first frame that names it
}

// slabGeo is what a task's shape fixes for its slab: the remote ghost slots in
// slot order (top of them above the slab), the halo plan and its edge rows.
type slabGeo struct {
	recv, edges []int
	top         int
	plan        haloPlan
}

// NewFarmOp registers the farm stencil kernel "stencil.farm.<name>".
func NewFarmOp[T any](name string, elem serial.Codec[T], elems serial.Codec[[]T], fn Func[T]) *FarmOp[T] {
	op := &FarmOp[T]{name: "stencil.farm." + name, elem: elem, elems: elems, fn: fn}
	cluster.RegisterFarm(op.name, op.taskBody)
	return op
}

// Name reports the kernel's registered name.
func (op *FarmOp[T]) Name() string { return op.name }

// Fn returns the kernel function, so callers can run the same kernel
// locally (e.g. a differential oracle's sequential reference).
func (op *FarmOp[T]) Fn() Func[T] { return op.fn }

// FarmRunOptions tune a FarmOp run.
type FarmRunOptions struct {
	// Slabs is the task count per sweep (default: the cluster's node
	// count), at most one per row.
	Slabs int
	// Farm is passed through to every round's Session.FarmOpts call. A
	// non-empty Job gets a "@<sweep>" suffix per round, so each sweep
	// checkpoints under its own WAL job name and a killed run resumes
	// mid-iteration: finished sweeps replay from their results, the
	// interrupted sweep re-runs only its unfinished slab tasks. With a
	// Checkpoint every epoch is one sweep — slab out, slab back — so each
	// record is a whole generation of its slab.
	Farm cluster.FarmOptions
}

// Task frame flags, in the header byte above the boundary strategy.
const (
	farmInline uint8 = 1 << 7 // the frame carries the slab's rows: build the Slab from them
	farmLast   uint8 = 1 << 6 // answer with the slab's rows and release it
	farmDrop   uint8 = 1 << 5 // release every slab of the run; nothing to sweep
	farmFlags        = farmInline | farmLast | farmDrop
)

// farmHeader opens every task frame — eight u32, one byte of flags and
// boundary strategy, the border constant: the grid and its partition, the
// slab the task is for, and the stamp (run, epoch, generation) a resident copy
// must carry for the task to apply to it.
type farmHeader struct {
	h, w, slabs, slab, radius, run, epoch, gen uint32
	flags                                      uint8
	boundary                                   Boundary
}

// farmBudget bounds what a frame can make a node build beyond the frame's own
// bytes: the partition map, the halo plan, and the ghost rows a slab resolves
// for itself (border and self-sourced slots do not travel).
const farmBudget = 1 << 20

// checkFarmShape is the shape a farmed slab must have, on the master before
// it frames a task and on the node before it believes one.
func checkFarmShape(h, w, slabs, slab, radius int) error {
	if w < 1 || slabs < 1 || slabs > h || h > math.MaxUint32 || slab < 0 || slab >= slabs ||
		radius < 0 || 2*radius+1 > farmBudget/(slabs+w) {
		return fmt.Errorf("stencil: farm slab %d of %d over %dx%d, radius %d: not a shape a task can carry",
			slab, slabs, h, w, radius)
	}
	return nil
}

// remoteSlots lists, in slot order, slab's ghost slots whose source row
// another slab owns, with those source rows, and counts the slots above the
// slab. Only these travel in a task; the Slab resolves the rest itself.
func remoteSlots(p Partition, slab, radius int, b Boundary) (slots, srcs []int, top int) {
	for slot, src := range ghostRows(p, slab, radius, b) {
		if src >= 0 && !p.Rows[slab].Contains(src) {
			slots, srcs = append(slots, slot), append(srcs, src)
			if slot < radius {
				top++
			}
		}
	}
	return slots, srcs, top
}

// edgeRows lists, ascending, the rows of the plan's slab that fill a ghost
// slot of some other slab: what the slab answers a sweep with.
func (pl haloPlan) edgeRows() []int {
	rows := slices.Concat(pl.sendTo...)
	slices.Sort(rows)
	return slices.Compact(rows)
}

// frame encodes one task into w, which it rewrites: the header, the slab's
// rows if the frame is inline, and two ghost sections — the remote slots above
// the slab, then those below — whose encoded size it also returns. A short w
// grows to exactly the frame's size for the 8-byte cells of I64s and F64s: 33
// header bytes, the border, the sections. A writer kept for one slab across
// the sweeps of a run so grows once, at its first inline frame.
func (op *FarmOp[T]) frame(w *serial.Writer, hd farmHeader, border T, rows, ghost []T, top int) ([]byte, int) {
	size := 41 + 8*(len(rows)+len(ghost))
	if hd.flags&farmDrop == 0 {
		size += 16
	}
	if hd.flags&farmInline != 0 {
		size += 8
	}
	w.Reset()
	w.Grow(size)
	for _, v := range [...]uint32{hd.h, hd.w, hd.slabs, hd.slab, hd.radius, hd.run, hd.epoch, hd.gen} {
		w.U32(v)
	}
	w.U8(hd.flags | uint8(hd.boundary))
	op.elem.Encode(w, border)
	if hd.flags&farmDrop != 0 {
		return w.Bytes(), 0
	}
	if hd.flags&farmInline != 0 {
		op.elems.Encode(w, rows)
	}
	before := w.Len()
	op.elems.Encode(w, ghost[:top*int(hd.w)])
	op.elems.Encode(w, ghost[top*int(hd.w):])
	return w.Bytes(), w.Len() - before
}

// farmTask is a task frame whose header is decoded and validated; r is left
// at the sections, for sections to decode where they land.
type farmTask[T any] struct {
	farmHeader
	slabGeo
	par  Params[T]
	part Partition
	r    *serial.Reader
}

// geometry returns hd's partition and slab geometry, derived once per shape.
func (op *FarmOp[T]) geometry(hd farmHeader) (Partition, slabGeo) {
	key, j, r := farmHeader{h: hd.h, w: hd.w, slabs: hd.slabs, radius: hd.radius, boundary: hd.boundary}, int(hd.slab), int(hd.radius)
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.shape != key {
		op.shape, op.part, op.geo = key, NewPartition(int(hd.h), int(hd.w), int(hd.slabs)), nil
		if int(hd.slabs)*int(hd.slabs) <= farmBudget {
			op.geo = make([]*slabGeo, len(op.part.Rows))
		}
	}
	var g *slabGeo
	if j < len(op.geo) {
		g = op.geo[j]
	}
	if g == nil {
		g = &slabGeo{plan: newHaloPlan(op.part, j, r, hd.boundary)}
		g.recv, _, g.top = remoteSlots(op.part, j, r, hd.boundary)
		g.edges = g.plan.edgeRows()
		if j < len(op.geo) {
			op.geo[j] = g
		}
	}
	return op.part, *g
}

// decodeTask parses a task frame's header, taking nothing in it on trust: the
// row range and the ghost slot count are derived from NewPartition(h, w,
// slabs), and a frame with fewer bytes left than those cells (each costs at
// least one) is refused before anything is built for it.
func (op *FarmOp[T]) decodeTask(task []byte) (t farmTask[T], err error) {
	r, hd := serial.NewReader(task), &t.farmHeader
	for _, v := range [...]*uint32{&hd.h, &hd.w, &hd.slabs, &hd.slab, &hd.radius, &hd.run, &hd.epoch, &hd.gen} {
		*v = r.U32()
	}
	b := r.U8()
	hd.flags, hd.boundary = b&farmFlags, Boundary(b&^farmFlags)
	t.par = Params[T]{Radius: int(hd.radius), Boundary: hd.boundary, Border: op.elem.Decode(r)}
	t.r = r
	err = errors.Join(r.Err(), t.par.check(), checkFarmShape(int(hd.h), int(hd.w), int(hd.slabs), int(hd.slab), t.par.Radius))
	if err == nil && hd.flags&farmDrop == 0 {
		t.part, t.slabGeo = op.geometry(*hd)
		cells := len(t.recv) * t.part.W
		if hd.flags&farmInline != 0 {
			cells += t.part.Rows[hd.slab].Len() * t.part.W
		}
		if cells > r.Remaining() {
			err = fmt.Errorf("%d cells", cells)
		}
	}
	if err != nil || hd.flags&farmDrop != 0 && r.Remaining() != 0 {
		return t, fmt.Errorf("%s: malformed task, %d bytes unread: %v", op.name, r.Remaining(), err)
	}
	return t, nil
}

// sections decodes a task's sections in place: the slab's rows into rows if
// the frame is inline, then the remote ghost rows into ghost, one per slot.
func (op *FarmOp[T]) sections(t farmTask[T], rows, ghost []T) error {
	if t.flags&farmInline != 0 {
		serial.DecodeInto(op.elems, t.r, rows)
	}
	serial.DecodeInto(op.elems, t.r, ghost[:t.top*t.part.W])
	serial.DecodeInto(op.elems, t.r, ghost[t.top*t.part.W:])
	if t.r.Err() != nil || t.r.Remaining() != 0 {
		return fmt.Errorf("%s: malformed task sections, %d bytes unread: %v", op.name, t.r.Remaining(), t.r.Err())
	}
	return nil
}

// residentSlab is what a node keeps between the sweeps of an epoch.
type residentSlab[T any] struct {
	*Slab[T]
	edges []int      // the rows every answer carries
	stamp farmHeader // the next task's header, flags apart
}

// taskBody is the node side of one slab sweep: build the Slab in place from an
// inline frame or find it resident, fill its ghosts, sweep, and answer — the
// slab's rows if the task is the epoch's last, else this rank and the edge
// rows, sized like a frame. An empty answer means the node does not hold the
// slab at the task's stamp.
func (op *FarmOp[T]) taskBody(n *cluster.Node, task []byte) ([]byte, error) {
	t, err := op.decodeTask(task)
	if err != nil {
		return nil, err
	}
	key := cluster.SegKey{Kernel: op.name, Run: int(t.run), Seg: int(t.slab)}
	if t.flags&farmDrop != 0 {
		for key.Seg = 0; key.Seg < int(t.slabs); key.Seg++ {
			op.pool.evict(n, key, int(t.slabs))
		}
		return []byte{}, nil
	}
	stamp := t.farmHeader
	stamp.flags = 0
	res, _ := n.Segs[key].(*residentSlab[T])
	if t.flags&farmInline != 0 {
		op.pool.evict(n, key, int(t.slabs))
		sl, err := newSlab(t.part, int(t.slab), t.par, op.elems, &op.pool, &t.plan)
		if err != nil {
			return nil, err
		}
		res = &residentSlab[T]{Slab: sl, edges: t.edges}
	} else if res == nil || res.stamp != stamp {
		return []byte{}, nil
	}
	// ExchangeHalos with the master as the relay: the frame's ghost rows.
	res.scratch = slices.Grow(res.scratch[:0], len(t.recv)*res.Part.W)[:len(t.recv)*res.Part.W]
	if err := op.sections(t, res.Rows(), res.scratch); err != nil {
		return nil, err
	}
	res.selfHalos()
	res.fillSlots(t.recv, res.scratch)
	res.Sweep(n.Pool, op.fn)
	stamp.gen++
	res.stamp = stamp
	if n.Segs == nil {
		n.Segs = make(map[cluster.SegKey]any)
	}
	n.Segs[key] = res
	if t.flags&farmLast != 0 {
		w := op.answer(n, key, 8+8*len(res.Rows()))
		op.elems.Encode(w, res.Rows())
		op.pool.evict(n, key, int(t.slabs))
		return w.Bytes(), nil
	}
	res.scratch = res.scratch[:0]
	for _, y := range res.edges {
		res.scratch = append(res.scratch, res.ownRow(y)...)
	}
	w := op.answer(n, key, 16+8*len(res.scratch))
	w.Int(n.Rank())
	op.elems.Encode(w, res.scratch)
	return w.Bytes(), nil
}

// answer returns the writer for a size-byte answer to key's task: the slab's
// writer Run keeps in the master's store under Seg -1, else n.Answer's.
func (op *FarmOp[T]) answer(n *cluster.Node, key cluster.SegKey, size int) *serial.Writer {
	ws, _ := n.Segs[cluster.SegKey{Kernel: op.name, Run: key.Run, Seg: -1}].([]serial.Writer)
	if key.Seg >= len(ws) {
		return n.Answer(size)
	}
	ws[key.Seg].Reset()
	ws[key.Seg].Grow(size)
	return &ws[key.Seg]
}

// errStale is a node's empty answer, read by the master.
var errStale = errors.New("stencil: resident slab is not at the task's generation")

// writers takes a run's writers off the free list — a sync.Pool would
// drop them at every GC — and extends them to at least m.
func (op *FarmOp[T]) writers(m int) (ws []serial.Writer) {
	op.mu.Lock()
	if k := len(op.free); k > 0 {
		ws, op.free = op.free[k-1], op.free[:k-1]
	}
	op.mu.Unlock()
	return append(ws, make([]serial.Writer, max(0, m-len(ws)))...)
}

// Run executes iters farmed sweeps over g and returns the final grid; g is
// not modified. Call from the master. Any quarantined slab task fails the
// run: a stencil generation needs every slab.
//
// The run is cut into epochs of K = max(1, slabRows/(2·Radius)) sweeps — by
// then the ghost rows relayed add up to one slab, so the wire carries at most
// twice the ghost-only volume and a fault costs at most K sweeps — and of one
// sweep when the run is checkpointed, so that each record is a whole
// generation of its slab. An epoch's first sweep sends slab j inline to rank
// j·nodes/n — the master is one of those ranks and sweeps its share between
// serving the workers — and the node answers with its rank and the rows other
// slabs read as ghosts; the next sweeps are pinned to that rank and carry
// only ghost rows; the last returns the slab's rows and releases it, and that
// generation is the base the next epoch starts from. If a worker holding
// slabs is retired, or a node answers that it does not hold its slab at the
// generation asked for, the epoch restarts inline from its base generation on
// whoever is left and asks — unplaced from then on — at most once per node
// before the run fails with the cause.
func (op *FarmOp[T]) Run(s *cluster.Session, g iter.Matrix2[T], par Params[T], iters int, opt FarmRunOptions) (iter.Matrix2[T], error) {
	var zero iter.Matrix2[T]
	if err := (Stencil[T]{Params: par, Fn: op.fn}).check(); err != nil {
		return zero, err
	}
	if len(g.Data) != g.H*g.W {
		return zero, fmt.Errorf("stencil: %dx%d grid with %d cells", g.H, g.W, len(g.Data))
	}
	if g.H == 0 || g.W == 0 {
		return g.Clone(), nil
	}
	nodes, w := s.Node().Nodes(), g.W
	n := opt.Slabs
	if n <= 0 {
		n = nodes
	}
	n = min(n, g.H) // block partitioning leaves the slabs past the rows empty
	if err := checkFarmShape(g.H, w, n, 0, par.Radius); err != nil {
		return zero, err
	}
	part := NewPartition(g.H, w, n)
	// Per slab: the source rows of its remote ghost slots, how many lie above
	// it, the rows its answers carry, the rank it is resident on, and the rank
	// an epoch's first sweep places it on (home is nil after a rollback).
	srcs, tops, edges, pins, home := make([][]int, n), make([]int, n), make([][]int, n), make([]int, n), make([]int, n)
	for j := range srcs {
		_, srcs[j], tops[j] = remoteSlots(part, j, par.Radius, par.Boundary)
		edges[j] = newHaloPlan(part, j, par.Radius, par.Boundary).edgeRows()
		home[j] = j * nodes / n
	}
	k := 1
	if opt.Farm.Checkpoint == nil {
		k = max(1, g.H/n/max(1, 2*par.Radius))
	}
	hd := farmHeader{h: uint32(g.H), w: uint32(w), slabs: uint32(n), radius: uint32(par.Radius),
		run: op.runs.Add(1), boundary: par.Boundary}
	// base is the generation the epoch started from; next collects the rows
	// answered since: edge rows, then whole slabs from the epoch's last sweep.
	base, next := g.Clone(), iter.Matrix2[T]{H: g.H, W: w, Data: make([]T, len(g.Data))}
	// Slab j's task is rewritten in frames[j] every sweep, the master's answer
	// to it in answers[j]. A frame is its sweep's only until FarmOpts returns —
	// a reliable send frames a copy, the fabric copies a direct one, a task the
	// master runs decodes out of it — an answer until Results are decoded (a
	// checkpoint copies it), so one of each a slab serves this run and the next.
	ws := op.writers(2 * n)
	frames, answers := ws[:n], ws[n:2*n]
	node, answerKey := s.Node(), cluster.SegKey{Kernel: op.name, Run: int(hd.run), Seg: -1}
	if node.Segs == nil {
		node.Segs = make(map[cluster.SegKey]any)
	}
	node.Segs[answerKey] = answers
	defer func() {
		delete(node.Segs, answerKey)
		op.mu.Lock()
		op.free = append(op.free, ws)
		op.mu.Unlock()
	}()
	tasks, scratch := make([][]byte, n), []T(nil)

	// sweep farms generation it → it+1: inline from base and placed on home
	// if it is the epoch's first, else pinned where the slabs are, with ghosts
	// from the edge rows the sweep before left in next.
	sweep := func(it int, first, last bool) error {
		src, fo := next, opt.Farm
		hd.gen, hd.flags, fo.Pin = uint32(it), 0, pins
		if first {
			src, hd.flags, fo.Pin = base, farmInline, home
		}
		if last {
			hd.flags |= farmLast
		}
		if fo.Job != "" {
			fo.Job = fmt.Sprintf("%s@%d", fo.Job, it)
		}
		halo := 0
		for j, own := range part.Rows {
			hd.slab, scratch = uint32(j), scratch[:0]
			for _, y := range srcs[j] {
				scratch = append(scratch, src.Data[y*w:(y+1)*w]...)
			}
			var rows []T
			if first {
				rows = base.Data[own.Lo*w : own.Hi*w]
			}
			var sections int
			tasks[j], sections = op.frame(&frames[j], hd, par.Border, rows, scratch, tops[j])
			halo += sections
		}
		s.Fabric().AddHaloBytes(int64(halo))
		res, err := s.FarmOpts(op.name, tasks, fo)
		if err != nil {
			return fmt.Errorf("%s sweep %d: %w", op.name, it, err)
		}
		if len(res.Failed) > 0 {
			f := res.Failed[0]
			return fmt.Errorf("%s sweep %d: %d slab tasks quarantined (task %d after %d attempts: %s)",
				op.name, it, len(res.Failed), f.Task, f.Attempts, f.Err)
		}
		for j, payload := range res.Results {
			if len(payload) == 0 {
				return fmt.Errorf("%s sweep %d: slab %d: %w", op.name, it, j, errStale)
			}
			// A last answer lands in next; edge rows go by way of scratch.
			rd, rows := serial.NewReader(payload), next.Data[part.Rows[j].Lo*w:part.Rows[j].Hi*w]
			if !last {
				pins[j] = rd.Int()
				scratch = slices.Grow(scratch[:0], len(edges[j])*w)[:len(edges[j])*w]
				rows = scratch
			}
			if serial.DecodeInto(op.elems, rd, rows); rd.Err() != nil || rd.Remaining() != 0 {
				return fmt.Errorf("%s sweep %d: slab %d answered %d bytes, not %d cells (%v)",
					op.name, it, j, len(payload), len(rows), rd.Err())
			}
			if last {
				continue
			}
			for i, y := range edges[j] {
				copy(next.Data[y*w:(y+1)*w], rows[i*w:])
			}
		}
		return nil
	}

	var fail error
	dirty := false // an epoch was abandoned with slabs resident
	for start, rolled := 0, 0; start < iters && fail == nil; {
		end := min(start+k, iters)
		hd.epoch++
		var err error
		for it := start; it < end && err == nil; it++ {
			err = sweep(it, it == start, it == end-1)
		}
		switch {
		case err == nil:
			base, next, start, rolled = next, base, end, 0
		case (errors.Is(err, cluster.ErrPinLost) || errors.Is(err, errStale)) && rolled < nodes:
			rolled, dirty, home = rolled+1, true, nil
			s.Node().Tracer.Instant(0, "stencil.rollback", int64(start))
		default:
			fail, dirty = err, dirty || end-start > 1
		}
	}
	if dirty {
		// Every node still reachable drops what the run left on it; a lost
		// node's store went with it.
		hd.flags = farmDrop
		drop, _ := op.frame(&frames[0], hd, par.Border, nil, nil, 0)
		drops, fo := make([][]byte, nodes), opt.Farm
		fo.Checkpoint, fo.Job, fo.Pin = nil, "", make([]int, nodes)
		for i := range drops {
			drops[i], fo.Pin[i] = drop, i
		}
		if _, err := s.FarmOpts(op.name, drops, fo); err != nil && !errors.Is(err, cluster.ErrPinLost) && fail == nil {
			fail = fmt.Errorf("%s release: %w", op.name, err)
		}
	}
	if fail != nil {
		return zero, fail
	}
	return base, nil
}
