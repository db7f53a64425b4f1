package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"triolet/internal/array"
	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// intC is the codec of the single ints the tests exchange.
var intC serial.Codec[int] = serial.Funcs[int]{Enc: (*serial.Writer).Int, Dec: (*serial.Reader).Int}

// Distributed kernels are registered once per process, at init, exactly as
// production code would.

// dotOp: distributed dot product over zipped slices. S carries both vector
// slices; there is no aux.
type dotSlice struct {
	Xs, Ys []float64
}

func dotSliceCodec() serial.Codec[dotSlice] {
	return serial.Funcs[dotSlice]{
		Enc: func(w *serial.Writer, v dotSlice) {
			w.F64Slice(v.Xs)
			w.F64Slice(v.Ys)
		},
		Dec: func(r *serial.Reader) dotSlice {
			return dotSlice{Xs: r.F64Slice(), Ys: r.F64Slice()}
		},
	}
}

var dotOp = NewMapReduce(
	"test.dot",
	dotSliceCodec(),
	serial.Unit(),
	serial.F64C(),
	func(n *cluster.Node, s dotSlice, _ struct{}) (float64, error) {
		it := iter.LocalPar(iter.ZipWith(func(x, y float64) float64 { return x * y },
			iter.FromSlice(s.Xs), iter.FromSlice(s.Ys)))
		return SumLocal(n.Pool, it, 256), nil
	},
	func(a, b float64) float64 { return a + b },
)

// histOp: distributed histogram with a broadcast bin count.
var histOp = NewMapReduce(
	"test.hist",
	serial.Ints(),
	intC,
	serial.I64s(),
	func(n *cluster.Node, vals []int, bins int) ([]int64, error) {
		return HistogramLocal(n.Pool, bins, iter.LocalPar(iter.FromSlice(vals)), 64), nil
	},
	func(a, b []int64) []int64 { array.AddInto(a, b); return a },
)

// squareOp: distributed array build (each task i yields x[i]^2).
var squareOp = NewBuildArray(
	"test.square",
	serial.F64s(),
	serial.Unit(),
	serial.F64s(),
	func(n *cluster.Node, xs []float64, _ struct{}) ([]float64, error) {
		it := iter.LocalPar(iter.Map(func(x float64) float64 { return x * x }, iter.FromSlice(xs)))
		return BuildSliceLocal(n.Pool, it, 128), nil
	},
)

// outerOp: distributed 2-D build computing o[y][x] = ys[y]*xs[x] from row
// and column slices.
type outerSlice struct {
	Rows, Cols []float64
}

func outerSliceCodec() serial.Codec[outerSlice] {
	return serial.Funcs[outerSlice]{
		Enc: func(w *serial.Writer, v outerSlice) {
			w.F64Slice(v.Rows)
			w.F64Slice(v.Cols)
		},
		Dec: func(r *serial.Reader) outerSlice {
			return outerSlice{Rows: r.F64Slice(), Cols: r.F64Slice()}
		},
	}
}

var outerOp = NewBuild2D(
	"test.outer",
	outerSliceCodec(),
	serial.Unit(),
	serial.Matrix[float64](),
	func(n *cluster.Node, s outerSlice, _ struct{}) (array.Matrix[float64], error) {
		out := array.NewMatrix[float64](len(s.Rows), len(s.Cols))
		for y, ry := range s.Rows {
			row := out.Row(y)
			for x, cx := range s.Cols {
				row[x] = ry * cx
			}
		}
		return out, nil
	},
)

// badShapeOp returns a wrong-sized section to exercise validation.
var badShapeOp = NewBuildArray(
	"test.badshape",
	serial.F64s(),
	serial.Unit(),
	serial.F64s(),
	func(n *cluster.Node, xs []float64, _ struct{}) ([]float64, error) {
		return make([]float64, len(xs)+1), nil
	},
)

var clusterShapes = []cluster.Config{
	{Nodes: 1, CoresPerNode: 1},
	{Nodes: 1, CoresPerNode: 4},
	{Nodes: 3, CoresPerNode: 2},
	{Nodes: 4, CoresPerNode: 1},
	{Nodes: 8, CoresPerNode: 2},
}

func TestDistDotProduct(t *testing.T) {
	n := 10007 // deliberately not divisible by node counts
	xs := make([]float64, n)
	ys := make([]float64, n)
	var want float64
	for i := range xs {
		xs[i] = float64(i%13) * 0.5
		ys[i] = float64(i%7) - 3
		want += xs[i] * ys[i]
	}
	src := FuncSource[dotSlice]{
		N: n,
		SliceFn: func(r domain.Range) dotSlice {
			return dotSlice{Xs: xs[r.Lo:r.Hi], Ys: ys[r.Lo:r.Hi]}
		},
	}
	for _, cfg := range clusterShapes {
		var got float64
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			v, err := dotOp.Run(s, src, struct{}{})
			got = v
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%+v: dot = %v, want %v", cfg, got, want)
		}
	}
}

func TestDistHistogram(t *testing.T) {
	vals := make([]int, 5000)
	for i := range vals {
		vals[i] = (i * 7) % 30
	}
	want := iter.Histogram(30, iter.FromSlice(vals))
	for _, cfg := range clusterShapes {
		var got []int64
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			h, err := histOp.Run(s, SliceSource(vals), 30)
			got = h
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: bin %d = %d, want %d", cfg, i, got[i], want[i])
			}
		}
	}
}

func TestDistHistogramRunLocal(t *testing.T) {
	vals := make([]int, 1000)
	for i := range vals {
		vals[i] = i % 10
	}
	want := iter.Histogram(10, iter.FromSlice(vals))
	_, err := cluster.Run(cluster.Config{Nodes: 3, CoresPerNode: 2}, func(s *cluster.Session) error {
		before := s.Fabric().Stats().Bytes
		h, err := histOp.RunLocal(s, SliceSource(vals), 10)
		if err != nil {
			return err
		}
		for i := range want {
			if h[i] != want[i] {
				t.Errorf("bin %d = %d, want %d", i, h[i], want[i])
			}
		}
		// localpar must not touch the fabric.
		if after := s.Fabric().Stats().Bytes; after != before {
			t.Errorf("RunLocal moved %d bytes over the fabric", after-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistBuildArray(t *testing.T) {
	xs := make([]float64, 4099)
	for i := range xs {
		xs[i] = float64(i) * 0.25
	}
	for _, cfg := range clusterShapes {
		var got []float64
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			out, err := squareOp.Run(s, SliceSource(xs), struct{}{})
			got = out
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(got) != len(xs) {
			t.Fatalf("%+v: len = %d", cfg, len(got))
		}
		for i := range xs {
			if got[i] != xs[i]*xs[i] {
				t.Fatalf("%+v: out[%d] = %v", cfg, i, got[i])
			}
		}
	}
}

func TestDistBuild2D(t *testing.T) {
	h, w := 61, 45
	rows := make([]float64, h)
	cols := make([]float64, w)
	for i := range rows {
		rows[i] = float64(i + 1)
	}
	for i := range cols {
		cols[i] = float64(i) * 0.5
	}
	src := FuncSource2[outerSlice]{
		D: domain.NewDim2(h, w),
		SliceFn: func(r domain.Rect) outerSlice {
			return outerSlice{
				Rows: rows[r.Rows.Lo:r.Rows.Hi],
				Cols: cols[r.Cols.Lo:r.Cols.Hi],
			}
		},
	}
	for _, cfg := range clusterShapes {
		var got array.Matrix[float64]
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			m, err := outerOp.Run(s, src, struct{}{})
			got = m
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for y := range h {
			for x := range w {
				if got.At(y, x) != rows[y]*cols[x] {
					t.Fatalf("%+v: o[%d][%d] = %v", cfg, y, x, got.At(y, x))
				}
			}
		}
	}
}

// TestSlicingReducesTraffic verifies the paper's §3.5 property directly:
// distributing a sliced array moves about one copy of it over the fabric
// (the root keeps its own share locally), not one copy per node.
func TestSlicingReducesTraffic(t *testing.T) {
	const n = 100000
	xs := make([]float64, n) // 800 KB
	src := FuncSource[dotSlice]{
		N: n,
		SliceFn: func(r domain.Range) dotSlice {
			return dotSlice{Xs: xs[r.Lo:r.Hi], Ys: xs[r.Lo:r.Hi]}
		},
	}
	cfg := cluster.Config{Nodes: 8, CoresPerNode: 1}
	stats, err := cluster.Run(cfg, func(s *cluster.Session) error {
		_, err := dotOp.Run(s, src, struct{}{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	inputBytes := int64(2 * 8 * n) // both vectors
	// Sliced distribution: 7/8 of the input crosses the fabric once.
	// Whole-input-per-node would move ~7 copies. Allow 1.5x for headers
	// and the scalar reduction.
	if stats.Bytes > inputBytes*3/2 {
		t.Fatalf("moved %d bytes for %d input bytes: slicing is not happening", stats.Bytes, inputBytes)
	}
	if stats.Bytes < inputBytes/2 {
		t.Fatalf("moved only %d bytes: input did not cross the fabric?", stats.Bytes)
	}
}

func TestBuildArraySectionValidation(t *testing.T) {
	xs := make([]float64, 64)
	_, err := cluster.Run(cluster.Config{Nodes: 2, CoresPerNode: 1}, func(s *cluster.Session) error {
		_, err := badShapeOp.Run(s, SliceSource(xs), struct{}{})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "elements for") {
		t.Fatalf("err = %v", err)
	}
}

func TestTracedRunRecordsPhases(t *testing.T) {
	tr := trace.New()
	vals := make([]int, 2000)
	cfg := cluster.Config{Nodes: 3, CoresPerNode: 2, Tracer: tr}
	_, err := cluster.Run(cfg, func(s *cluster.Session) error {
		_, err := histOp.Run(s, SliceSource(vals), 8)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := tr.PhaseTotals()
	for _, phase := range []string{"scatter", "bcast", "kernel", "reduce"} {
		if totals[phase] <= 0 {
			t.Errorf("phase %q not recorded: %v", phase, totals)
		}
	}
	// Every rank must have a kernel span.
	ranks := map[int]bool{}
	for _, s := range tr.Spans() {
		if s.Phase == "kernel" {
			ranks[s.Rank] = true
		}
	}
	for r := range 3 {
		if !ranks[r] {
			t.Errorf("rank %d has no kernel span", r)
		}
	}
	if tr.Gantt(60) == "(no spans)\n" {
		t.Error("gantt empty")
	}
}

func TestOpNames(t *testing.T) {
	if dotOp.Name() != "test.dot" || squareOp.Name() != "test.square" || outerOp.Name() != "test.outer" {
		t.Fatal("op names wrong")
	}
}

func TestDuplicateKernelNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMapReduce("test.dot", serial.Unit(), serial.Unit(), intC,
		func(*cluster.Node, struct{}, struct{}) (int, error) { return 0, nil },
		func(a, b int) int { return a + b })
}

// The skeleton contract. The same small integer kernel is registered under
// each of the four distributed skeletons; aux names the rank whose kernel
// fails with errContract (-1: none), so one registration per skeleton
// serves the answer, wire-shape, span and error rows of the table.
var errContract = errors.New("contract: kernel failed")

func failOn(n *cluster.Node, rank int) error {
	if n.Rank() == rank {
		return errContract
	}
	return nil
}

func rectCodec() serial.Codec[domain.Rect] {
	return serial.Funcs[domain.Rect]{
		Enc: func(w *serial.Writer, r domain.Rect) {
			w.Int(r.Rows.Lo)
			w.Int(r.Rows.Hi)
			w.Int(r.Cols.Lo)
			w.Int(r.Cols.Hi)
		},
		Dec: func(r *serial.Reader) domain.Rect {
			return domain.Rect{
				Rows: domain.Range{Lo: r.Int(), Hi: r.Int()},
				Cols: domain.Range{Lo: r.Int(), Hi: r.Int()},
			}
		},
	}
}

// contractGridW is the width of contractGrid's task domain: tasks×3 cells,
// cell (y, x) holding y*contractGridW+x.
const contractGridW = 3

var (
	contractSum = NewMapReduce("contract.sum", serial.Ints(), intC, intC,
		func(n *cluster.Node, xs []int, fail int) (int, error) {
			return iter.Sum(iter.FromSlice(xs)), failOn(n, fail)
		},
		func(a, b int) int { return a + b })
	contractSquares = NewBuildArray("contract.squares", serial.Ints(), intC, serial.Ints(),
		func(n *cluster.Node, xs []int, fail int) ([]int, error) {
			return iter.ToSlice(iter.Map(func(x int) int { return x * x }, iter.FromSlice(xs))), failOn(n, fail)
		})
	contractEvens = NewFlatMap("contract.evens", serial.Ints(), intC, serial.Ints(),
		func(n *cluster.Node, xs []int, fail int) ([]int, error) {
			return iter.ToSlice(iter.Filter(func(x int) bool { return x%2 == 0 }, iter.FromSlice(xs))), failOn(n, fail)
		}, nil)
	contractGrid = NewBuild2D("contract.grid", rectCodec(), intC, serial.Matrix[float64](),
		func(n *cluster.Node, r domain.Rect, fail int) (array.Matrix[float64], error) {
			m := array.NewMatrix[float64](r.Rows.Len(), r.Cols.Len())
			for y := range m.H {
				for x := range m.W {
					m.Set(y, x, float64((r.Rows.Lo+y)*contractGridW+r.Cols.Lo+x))
				}
			}
			return m, failOn(n, fail)
		})
)

func contractInput(tasks int) []int {
	xs := make([]int, tasks)
	for i := range xs {
		xs[i] = i + 1
	}
	return xs
}

// wireShape is the fabric traffic of one skeleton call plus the session's
// dispatch and shutdown broadcasts.
type wireShape struct{ msgs, bytes int64 }

// TestSkeletonContract pins what every distributed skeleton promises,
// whichever way it cuts its domain and collects its partials.
func TestSkeletonContract(t *testing.T) {
	cases := []struct {
		name string
		// run executes the skeleton over tasks tasks with aux fail and
		// returns its result; seq is the sequential answer.
		run func(s *cluster.Session, tasks, fail int) (any, error)
		seq func(tasks int) any
		// collect names the last phase: a tree reduce or a gather.
		collect string
		// wire is the traffic of a 1000-task call at 1, 2 and 4 nodes,
		// recorded before the skeletons shared one engine.
		wire map[int]wireShape
	}{
		{
			name: "MapReduce",
			run: func(s *cluster.Session, tasks, fail int) (any, error) {
				return contractSum.Run(s, SliceSource(contractInput(tasks)), fail)
			},
			seq:     func(tasks int) any { return tasks * (tasks + 1) / 2 },
			collect: "reduce",
			wire:    map[int]wireShape{1: {0, 0}, 2: {5, 4061}, 4: {15, 6183}},
		},
		{
			name: "BuildArray",
			run: func(s *cluster.Session, tasks, fail int) (any, error) {
				return contractSquares.Run(s, SliceSource(contractInput(tasks)), fail)
			},
			seq: func(tasks int) any {
				out := make([]int, tasks)
				for i := range out {
					out[i] = (i + 1) * (i + 1)
				}
				return out
			},
			collect: "gather",
			wire:    map[int]wireShape{1: {0, 0}, 2: {5, 8065}, 4: {15, 12195}},
		},
		{
			name: "FlatMap",
			run: func(s *cluster.Session, tasks, fail int) (any, error) {
				return contractEvens.Run(s, SliceSource(contractInput(tasks)), fail)
			},
			seq: func(tasks int) any {
				out := []int{}
				for i := 2; i <= tasks; i += 2 {
					out = append(out, i)
				}
				return out
			},
			collect: "gather",
			wire:    map[int]wireShape{1: {0, 0}, 2: {5, 6063}, 4: {15, 9189}},
		},
		{
			name: "Build2D",
			run: func(s *cluster.Session, tasks, fail int) (any, error) {
				src := FuncSource2[domain.Rect]{
					D:       domain.NewDim2(tasks, contractGridW),
					SliceFn: func(r domain.Rect) domain.Rect { return r },
				}
				return contractGrid.Run(s, src, fail)
			},
			seq: func(tasks int) any {
				m := array.NewMatrix[float64](tasks, contractGridW)
				for i := range m.Data {
					m.Data[i] = float64(i)
				}
				return m
			},
			collect: "gather",
			wire:    map[int]wireShape{1: {0, 0}, 2: {5, 12102}, 4: {15, 16306}},
		},
	}
	// runWithin fails the test instead of hanging when a rank never unwinds.
	runWithin := func(t *testing.T, cfg cluster.Config, master func(*cluster.Session) error) (transport.Stats, error) {
		t.Helper()
		type outcome struct {
			stats transport.Stats
			err   error
		}
		done := make(chan outcome, 1)
		go func() {
			stats, err := cluster.Run(cfg, master)
			done <- outcome{stats, err}
		}()
		select {
		case o := <-done:
			return o.stats, o.err
		case <-time.After(30 * time.Second):
			t.Fatalf("%+v: session did not unwind", cfg)
			panic("unreachable")
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Empty domains and more nodes than tasks (empty slices on the
			// trailing ranks) still produce the sequential answer.
			for _, shape := range []struct{ tasks, nodes int }{{0, 1}, {0, 4}, {3, 8}, {1, 2}} {
				var got any
				_, err := runWithin(t, cluster.Config{Nodes: shape.nodes, CoresPerNode: 1},
					func(s *cluster.Session) error {
						var err error
						got, err = c.run(s, shape.tasks, -1)
						return err
					})
				if err != nil {
					t.Fatalf("%+v: %v", shape, err)
				}
				if want := c.seq(shape.tasks); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%+v: got %v, want %v", shape, got, want)
				}
			}
			// A kernel error on any one rank unwinds every rank, and the
			// session reports the kernel's own error.
			for _, fail := range []int{0, 2} {
				_, err := runWithin(t, cluster.Config{Nodes: 3, CoresPerNode: 1},
					func(s *cluster.Session) error {
						_, err := c.run(s, 100, fail)
						return err
					})
				if !errors.Is(err, errContract) {
					t.Errorf("kernel failing on rank %d: err = %v, want errContract", fail, err)
				}
			}
			// Same collectives, same codecs, same partitions: the wire
			// shape is a constant. Every rank brackets the same phases.
			for _, nodes := range []int{1, 2, 4} {
				tr := trace.New()
				stats, err := runWithin(t, cluster.Config{Nodes: nodes, CoresPerNode: 1, Tracer: tr},
					func(s *cluster.Session) error {
						_, err := c.run(s, 1000, -1)
						return err
					})
				if err != nil {
					t.Fatalf("%d nodes: %v", nodes, err)
				}
				if got := (wireShape{stats.Messages, stats.Bytes}); got != c.wire[nodes] {
					t.Errorf("%d nodes: wire %+v, want %+v", nodes, got, c.wire[nodes])
				}
				seen := map[int]map[string]bool{}
				for _, sp := range tr.Spans() {
					if seen[sp.Rank] == nil {
						seen[sp.Rank] = map[string]bool{}
					}
					seen[sp.Rank][sp.Phase] = true
				}
				for r := range nodes {
					for _, phase := range []string{"scatter", "bcast", "kernel", c.collect} {
						if !seen[r][phase] {
							t.Errorf("%d nodes: rank %d has no %q span", nodes, r, phase)
						}
					}
				}
			}
		})
	}
}
