package stencil

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"triolet/internal/cluster"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/trace"
)

// farmSeedFrames frames slab 1 of a 12×5 Mirror grid in 3 slabs, radius 2,
// the three ways a sweep can: inline, by handle, and by handle as the last
// sweep of an epoch. Slab 1 has four remote ghost slots, two above.
func farmSeedFrames() (inline, handle, last []byte) {
	hd := farmHeader{h: 12, w: 5, slabs: 3, slab: 1, radius: 2, run: 7, epoch: 2, gen: 4, boundary: Mirror}
	rows, ghost := make([]int64, 4*5), make([]int64, 4*5)
	for i := range rows {
		rows[i], ghost[i] = int64(i), int64(100+i)
	}
	hd.flags = farmInline
	inline, _ = tableFarm.frame(hd, -5, rows, ghost, 2)
	hd.flags, hd.gen = 0, 5
	handle, _ = tableFarm.frame(hd, -5, nil, ghost, 2)
	hd.flags, hd.gen = farmLast, 6
	last, _ = tableFarm.frame(hd, -5, nil, ghost, 2)
	return inline, handle, last
}

// decodeAll decodes a whole task frame the way a node does — the header, then
// the sections into buffers of their size — for a test to look at.
func decodeAll(frame []byte) (t farmTask[int64], rows, ghost []int64, err error) {
	if t, err = tableFarm.decodeTask(frame); err != nil || t.flags&farmDrop != 0 {
		return t, nil, nil, err
	}
	if t.flags&farmInline != 0 {
		rows = make([]int64, t.part.Rows[t.slab].Len()*t.part.W)
	}
	ghost = make([]int64, len(t.recv)*t.part.W)
	return t, rows, ghost, tableFarm.sections(t, rows, ghost)
}

// FuzzFarmOpTask feeds arbitrary bytes to the farmed stencil's task decoder.
// It may not panic or hang; what it accepts is a shape checkFarmShape allows,
// carries no more cells than the frame has bytes, and re-encodes to the frame
// it came from — so every field was read from the frame and checked against
// the partition, none taken on trust.
func FuzzFarmOpTask(f *testing.F) {
	inline, handle, last := farmSeedFrames()
	for _, s := range [][]byte{inline, handle, last} {
		f.Add(s)
		f.Add(append(bytes.Clone(s), 0)) // trailing byte
		f.Add(s[:len(s)/2])              // torn frame
	}
	absurd := bytes.Clone(inline)
	copy(absurd[8:], []byte{0xff, 0xff, 0xff, 0x7f}) // two billion slabs
	f.Add(absurd)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		task, rows, ghost, err := decodeAll(data)
		if err != nil {
			if !strings.Contains(err.Error(), "malformed task") {
				t.Fatalf("refusal does not say malformed task: %v", err)
			}
			return
		}
		if err := checkFarmShape(int(task.h), int(task.w), int(task.slabs), int(task.slab), int(task.radius)); err != nil {
			t.Fatalf("accepted %+v: %v", task.farmHeader, err)
		}
		if len(rows)+len(ghost) > len(data) || len(task.part.Rows) > farmBudget {
			t.Fatalf("accepted %d+%d cells over %d slabs from %d bytes", len(rows), len(ghost), len(task.part.Rows), len(data))
		}
		if again, _ := tableFarm.frame(task.farmHeader, task.par.Border, rows, ghost, task.top); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nfrom %x", again, data)
		}
	})
}

// TestFarmOpTaskRejectsMalformed: the seeds decode; each single corruption of
// the inline seed that the partition can contradict is refused as a malformed
// task, not discovered by the kernel; and a handle for a slab the node does
// not hold is answered empty, not with an error.
func TestFarmOpTaskRejectsMalformed(t *testing.T) {
	inline, handle, last := farmSeedFrames()
	for name, frame := range map[string][]byte{"inline": inline, "handle": handle, "last": last} {
		task, rows, ghost, err := decodeAll(frame)
		if err != nil || len(task.recv) != 4 || len(ghost) != 20 || (name == "inline") != (len(rows) == 20) {
			t.Fatalf("%s seed: %+v, %v", name, task, err)
		}
	}
	u32 := func(field int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte {
			b[4*field], b[4*field+1], b[4*field+2], b[4*field+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			return b
		}
	}
	for name, corrupt := range map[string]func([]byte) []byte{
		"slab past the partition": u32(3, 3),
		"more slabs than rows":    u32(2, 13),
		"no slabs":                u32(2, 0),
		"zero width":              u32(1, 0),
		"taller grid":             u32(0, 14), // slab 1 of 14 rows in 3 slabs has five rows
		"wider rows":              u32(1, 6),
		"radius past the budget":  u32(4, 1<<19),
		"radius with more ghosts": u32(4, 3),
		"unknown boundary":        func(b []byte) []byte { b[32] = farmInline | 9; return b },
		"inline flag dropped":     func(b []byte) []byte { b[32] = uint8(Mirror); return b },
		"torn":                    func(b []byte) []byte { return b[:len(b)-3] },
		"trailing byte":           func(b []byte) []byte { return append(b, 0) },
		"header only":             func(b []byte) []byte { return b[:41] },
	} {
		_, _, _, err := decodeAll(corrupt(bytes.Clone(inline)))
		if err == nil || !strings.Contains(err.Error(), "malformed task") {
			t.Errorf("%s: %v", name, err)
		}
	}
	n := &cluster.Node{}
	if out, err := tableFarm.taskBody(n, handle); err != nil || out == nil || len(out) != 0 || len(n.Segs) != 0 {
		t.Errorf("handle for a slab not resident: answer %v, %v, %d segments", out, err, len(n.Segs))
	}
}

// evictCell is tableCell, until the fourth time it computes cell (0, 0) — the
// first slab's task of the second epoch's second sweep, below — when it runs
// evict first.
var (
	evictCalls int
	evict      func()
	evictFarm  = NewFarmOp("test.evict", serial.I64C(), serial.I64s(), func(nb Neighborhood[int64]) int64 {
		if nb.Y() == 0 && nb.X() == 0 {
			if evictCalls++; evictCalls == 4 {
				evict()
			}
		}
		return tableCell(nb)
	})
)

// TestFarmOpRollbackOnStaleSlab takes a resident slab away in the middle of
// an epoch. The node answers the slab's next task empty, the master rolls
// back to the epoch's base generation and restarts it inline, and the run
// ends with the reference grid and an empty store.
func TestFarmOpRollbackOnStaleSlab(t *testing.T) {
	g := iter.Matrix2[int64]{H: 8, W: 5, Data: make([]int64, 40)}
	for i := range g.Data {
		g.Data[i] = int64(i*i%31 + 1)
	}
	par := Params[int64]{Radius: 1, Boundary: Wrap}
	const iters = 6 // two slabs of four rows: epochs of two sweeps
	tr := trace.New()
	var got iter.Matrix2[int64]
	_, err := cluster.Run(cluster.Config{Nodes: 1, CoresPerNode: 1, Tracer: tr}, func(s *cluster.Session) (err error) {
		evictCalls = 0
		evict = func() {
			key := cluster.SegKey{Kernel: evictFarm.Name(), Run: int(evictFarm.runs.Load()), Seg: 1}
			if s.Node().Segs[key] == nil {
				t.Error("slab 1 is not resident in the middle of its epoch")
			}
			delete(s.Node().Segs, key)
		}
		got, err = evictFarm.Run(s, g, par, iters, FarmRunOptions{Slabs: 2})
		if n := len(s.Node().Segs); n != 0 {
			t.Errorf("%d segments resident after the run", n)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Data, tableRef(g, par, iters)) {
		t.Error("grid differs from the reference")
	}
	if n := tr.Count("stencil.rollback"); n != 1 {
		t.Errorf("%d rollbacks, want 1", n)
	}
}

// placeFarm is tableFarm under a kernel that records, per generation, which
// rank swept each slab, and on rank placeSlow takes 300ms of wall time per
// slab of the first sweep.
var (
	placeRan  [][]int // placeRan[gen][slab] is the rank that swept it, -1 for none
	placeSlow = -1
	placeFarm = func() *FarmOp[int64] {
		op := &FarmOp[int64]{name: "stencil.farm.test.place", elem: serial.I64C(), elems: serial.I64s(), fn: tableCell}
		cluster.RegisterFarm(op.name, func(n *cluster.Node, task []byte) ([]byte, error) {
			if t, err := op.decodeTask(task); err == nil && t.flags&farmDrop == 0 {
				placeRan[t.gen][t.slab] = n.Rank()
				if n.Rank() == placeSlow && t.gen == 0 {
					time.Sleep(300 * time.Millisecond)
				}
			}
			return op.taskBody(n, task)
		})
		return op
	}()
)

// TestFarmOpMasterSweepsItsShare: on 2 nodes × 8 slabs the master is a node
// too. Every sweep, not only an epoch's first, runs slabs 0–3 on rank 0 and
// 4–7 on rank 1 — four tasks per sweep on the master — directly and over the
// reliable layer, and the grid is the reference's to the bit. The last two
// rows make one node's first-sweep slabs take about eight times the reliable
// layer's whole retry budget while the other node has a frame waiting for its
// ack: the worker's results while the master sweeps, the worker's prefetched
// task while it does. A node computing still acknowledges its peers, so
// nobody is written off: no retirement, no rollback.
func TestFarmOpMasterSweepsItsShare(t *testing.T) {
	g := iter.Matrix2[int64]{H: 32, W: 8, Data: make([]int64, 256)}
	for i := range g.Data {
		g.Data[i] = int64(i*i%97 + 1)
	}
	par := Params[int64]{Radius: 1, Boundary: Wrap}
	const iters = 6 // 4-row slabs: epochs of two sweeps
	tight := &mpi.ReliableConfig{AckTimeout: 10 * time.Millisecond, Retries: 2, MaxAckTimeout: 10 * time.Millisecond}
	for _, tc := range []struct {
		rel  *mpi.ReliableConfig
		slow int
	}{{nil, -1}, {&mpi.ReliableConfig{AckTimeout: time.Second}, -1}, {tight, 0}, {tight, 1}} {
		placeRan, placeSlow = make([][]int, iters), tc.slow
		for gen := range placeRan {
			placeRan[gen] = slices.Repeat([]int{-1}, 8)
		}
		tr := trace.New()
		var got iter.Matrix2[int64]
		_, err := cluster.Run(cluster.Config{Nodes: 2, CoresPerNode: 1, Reliable: tc.rel, Tracer: tr}, func(s *cluster.Session) (err error) {
			got, err = placeFarm.Run(s, g, par, iters, FarmRunOptions{Slabs: 8})
			return err
		})
		name := fmt.Sprintf("reliable %v, rank %d slow", tc.rel != nil, tc.slow)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Data, tableRef(g, par, iters)) {
			t.Errorf("%s: grid differs from the reference", name)
		}
		if r, b := tr.Count("farm.retire"), tr.Count("stencil.rollback"); r+b != 0 {
			t.Errorf("%s: %d retirements, %d rollbacks", name, r, b)
		}
		for gen, ranks := range placeRan {
			if want := []int{0, 0, 0, 0, 1, 1, 1, 1}; !slices.Equal(ranks, want) {
				t.Errorf("%s: sweep %d ran slabs on ranks %v, want %v", name, gen, ranks, want)
			}
		}
	}
}
