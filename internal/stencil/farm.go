package stencil

import (
	"fmt"
	"sync"

	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/serial"
)

// FarmOp runs the iterated stencil as a sequence of Session.Farm rounds —
// one farm job per sweep, one task per non-empty slab — trading the
// collectives' lower overhead for the farm's whole fault-tolerance stack:
// worker-loss reassignment, per-task retry, and WAL checkpoint/resume. The
// master keeps the whole grid; each round it cuts row slabs bundled with
// their strategy-resolved ghost rows (attributed as halo bytes at
// task-build time — provisioned halo volume, since a task may run on the
// master without crossing the fabric), farms the sweeps out, and
// reassembles the next generation. Task results depend only on the task
// payload, so a resumed or re-executed sweep is bit-identical.
type FarmOp[T any] struct {
	name  string
	elem  serial.Codec[T]
	elems serial.Codec[[]T]
	fn    Func[T]
	// wins recycles taskBody's padded windows (*[]T): assembling the codec's
	// sections is a copy, and a fresh slab-sized buffer per task adds 6 % to
	// a farmed solve's allocation.
	wins sync.Pool
}

// NewFarmOp registers the farm stencil kernel "stencil.farm.<name>".
func NewFarmOp[T any](name string, elem serial.Codec[T], elems serial.Codec[[]T], fn Func[T]) *FarmOp[T] {
	op := &FarmOp[T]{name: "stencil.farm." + name, elem: elem, elems: elems, fn: fn}
	op.wins.New = func() any { return new([]T) }
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
	// count). More slabs than rows degenerates gracefully: empty slabs
	// produce no task.
	Slabs int
	// Farm is passed through to every round's Session.FarmOpts call. A
	// non-empty Job gets a "@<sweep>" suffix per round, so each sweep
	// checkpoints under its own WAL job name and a killed run resumes
	// mid-iteration: finished sweeps replay from their results, the
	// interrupted sweep re-runs only its unfinished slab tasks.
	Farm cluster.FarmOptions
}

// taskBody is the worker-side sweep of one slab: decode rows plus
// pre-resolved ghosts, sweep their padded window on the node's pool, and
// return the slab's next generation.
func (op *FarmOp[T]) taskBody(n *cluster.Node, task []byte) ([]byte, error) {
	r := serial.NewReader(task)
	h, w, rowLo := r.Int(), r.Int(), r.Int()
	var par Params[T]
	par.Radius = r.Int()
	par.Boundary = Boundary(r.U8())
	par.Border = op.elem.Decode(r)
	rows := op.elems.Decode(r)
	top := op.elems.Decode(r)
	bot := op.elems.Decode(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%s task: %w", op.name, err)
	}
	if err := par.check(); err != nil {
		return nil, err
	}
	if w <= 0 || len(rows)%w != 0 || len(top) != par.Radius*w || len(bot) != par.Radius*w {
		return nil, fmt.Errorf("%s task: %d cells, %d/%d ghosts, width %d radius %d",
			op.name, len(rows), len(top), len(bot), w, par.Radius)
	}
	nRows := len(rows) / w
	// The slab's padded window, as a Slab holds it: ghosts | rows | ghosts.
	win := op.wins.Get().(*[]T)
	defer op.wins.Put(win)
	*win = append(append(append((*win)[:0], top...), rows...), bot...)
	s := newSweeper(par, *win, h, w, rowLo, nRows, par.Radius)
	out := make([]T, len(rows))
	s.run(n.Pool, op.fn, out, 0, nRows)
	wtr := serial.NewWriter(len(task))
	op.elems.Encode(wtr, out)
	return wtr.Bytes(), nil
}

// encodeTask builds one slab task from the current grid, returning the task
// and the encoded size of its ghost-row sections (the round's halo volume).
func (op *FarmOp[T]) encodeTask(g iter.Matrix2[T], par Params[T], rng domain.Range, ghost []T) ([]byte, int) {
	w := serial.NewWriter(16 + (rng.Len()+2*par.Radius)*g.W*8)
	w.Int(g.H)
	w.Int(g.W)
	w.Int(rng.Lo)
	w.Int(par.Radius)
	w.U8(uint8(par.Boundary))
	op.elem.Encode(w, par.Border)
	op.elems.Encode(w, g.Data[rng.Lo*g.W:rng.Hi*g.W])
	before := w.Len()
	buildGhost(ghost, g, par, rng.Lo-par.Radius)
	op.elems.Encode(w, ghost)
	buildGhost(ghost, g, par, rng.Hi)
	op.elems.Encode(w, ghost)
	return w.Bytes(), w.Len() - before
}

// buildGhost fills ghost (radius×W) with the strategy-resolved contents of
// the radius global rows starting at loRow: in-grid or wrapped/mirrored
// rows copy from the grid, border rows fill with the constant, and
// Normal's never-read rows stay zero.
func buildGhost[T any](ghost []T, g iter.Matrix2[T], par Params[T], loRow int) {
	w := g.W
	for k := 0; k < par.Radius; k++ {
		row := ghost[k*w : (k+1)*w]
		if my, ok := mapIndex(loRow+k, g.H, par.Boundary); ok {
			copy(row, g.Data[my*w:(my+1)*w])
			continue
		}
		var fill T
		if par.Boundary == Border {
			fill = par.Border
		}
		for i := range row {
			row[i] = fill
		}
	}
}

// Run executes iters farmed sweeps over g and returns the final grid; g is
// not modified. Call from the master. Any quarantined slab task fails the
// run: a stencil generation needs every slab.
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
	slabs := opt.Slabs
	if slabs <= 0 {
		slabs = s.Node().Nodes()
	}
	part := NewPartition(g.H, g.W, slabs)
	cur := g.Clone()
	next := iter.Matrix2[T]{H: g.H, W: g.W, Data: make([]T, len(g.Data))}
	ghost := make([]T, par.Radius*g.W)
	tasks := make([][]byte, 0, slabs)
	slabOf := make([]domain.Range, 0, slabs)
	for it := 0; it < iters; it++ {
		tasks, slabOf = tasks[:0], slabOf[:0]
		halo := 0
		for _, rng := range part.Rows {
			if rng.Empty() {
				continue
			}
			task, ghostBytes := op.encodeTask(cur, par, rng, ghost)
			tasks = append(tasks, task)
			slabOf = append(slabOf, rng)
			halo += ghostBytes
		}
		s.Fabric().AddHaloBytes(int64(halo))
		fo := opt.Farm
		if fo.Job != "" {
			fo.Job = fmt.Sprintf("%s@%d", opt.Farm.Job, it)
		}
		res, err := s.FarmOpts(op.name, tasks, fo)
		if err != nil {
			return zero, fmt.Errorf("%s sweep %d: %w", op.name, it, err)
		}
		if len(res.Failed) > 0 {
			f := res.Failed[0]
			return zero, fmt.Errorf("%s sweep %d: %d slab tasks quarantined (task %d after %d attempts: %s)",
				op.name, it, len(res.Failed), f.Task, f.Attempts, f.Err)
		}
		for ti, payload := range res.Results {
			rows, err := serial.Unmarshal(op.elems, payload)
			rng := slabOf[ti]
			if err != nil || len(rows) != rng.Len()*g.W {
				return zero, fmt.Errorf("%s sweep %d: slab %d returned %d cells for %d rows (%v)",
					op.name, it, ti, len(rows), rng.Len(), err)
			}
			copy(next.Data[rng.Lo*g.W:rng.Hi*g.W], rows)
		}
		cur, next = next, cur
	}
	return cur, nil
}
