package sgemm

import (
	"errors"
	"testing"

	"triolet/internal/array"
	"triolet/internal/cluster"
	"triolet/internal/diffcheck"
	"triolet/internal/eden"
	"triolet/internal/parboil"
	"triolet/internal/sched"
	"triolet/internal/transport"
)

func TestGenDeterministic(t *testing.T) {
	a := Gen(8, 6, 10, 3)
	b := Gen(8, 6, 10, 3)
	if parboil.MaxAbsDiff(a.A.Data, b.A.Data) != 0 || parboil.MaxAbsDiff(a.B.Data, b.B.Data) != 0 {
		t.Fatal("same seed, different matrices")
	}
	if a.A.H != 8 || a.A.W != 6 || a.B.H != 6 || a.B.W != 10 {
		t.Fatal("shapes wrong")
	}
}

func TestSeqIdentity(t *testing.T) {
	// A·I = A (alpha 1).
	in := &Input{A: array.NewMatrix[float32](3, 3), B: array.NewMatrix[float32](3, 3), Alpha: 1}
	vals := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	copy(in.A.Data, vals)
	for i := range 3 {
		in.B.Set(i, i, 1)
	}
	got := Seq(in)
	if parboil.MaxAbsDiff(got.Data, vals) != 0 {
		t.Fatalf("A·I = %v", got.Data)
	}
}

func TestSeqAlphaScales(t *testing.T) {
	in := Gen(5, 4, 6, 9)
	c1 := Seq(in)
	in2 := &Input{A: in.A, B: in.B, Alpha: in.Alpha * 2}
	c2 := Seq(in2)
	for i := range c1.Data {
		if !diffcheck.TolSgemm.Within(float64(c2.Data[i]), float64(2*c1.Data[i]), 0) {
			t.Fatalf("alpha scaling broken at %d: %v vs %v", i, c2.Data[i], c1.Data[i])
		}
	}
}

func TestSeqKnownProduct(t *testing.T) {
	in := &Input{
		A:     array.FromRows([][]float32{{1, 2}, {3, 4}}),
		B:     array.FromRows([][]float32{{5, 6}, {7, 8}}),
		Alpha: 1,
	}
	want := []float32{19, 22, 43, 50}
	got := Seq(in)
	if parboil.MaxAbsDiff(got.Data, want) != 0 {
		t.Fatalf("product = %v, want %v", got.Data, want)
	}
}

func TestTransposeLocalParallelMatchesSeq(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	m := Gen(37, 23, 1, 5).A
	seq := array.Transpose(m)
	par := TransposeLocal(pool, m)
	if parboil.MaxAbsDiff(seq.Data, par.Data) != 0 {
		t.Fatal("parallel transpose differs")
	}
}

func checkMatch(t *testing.T, name string, got array.Matrix[float32], in *Input) {
	t.Helper()
	want := Seq(in)
	if got.H != want.H || got.W != want.W {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.H, got.W, want.H, want.W)
	}
	// Same fused inner loop everywhere → bit-identical.
	if d := parboil.MaxAbsDiff(got.Data, want.Data); d != 0 {
		t.Fatalf("%s: differs by %v", name, d)
	}
}

func TestTrioletMatchesSeq(t *testing.T) {
	in := Gen(45, 30, 37, 21)
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 2},
		{Nodes: 4, CoresPerNode: 2},
		{Nodes: 6, CoresPerNode: 1},
	} {
		var got array.Matrix[float32]
		_, err := cluster.Run(cfg, func(s *cluster.Session) error {
			c, err := Triolet(s, in)
			got = c
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkMatch(t, "triolet", got, in)
	}
}

// TestEdenMatchesSeq also pins each run's fabric bytes exactly.
func TestEdenMatchesSeq(t *testing.T) {
	in := Gen(33, 20, 29, 23)
	for _, row := range []struct {
		cfg   eden.Config
		bytes int64
	}{
		{eden.Config{Processes: 1}, 0},
		{eden.Config{Processes: 4, ProcsPerNode: 2}, 13940},
		{eden.Config{Processes: 8, ProcsPerNode: 2}, 23758},
	} {
		var got array.Matrix[float32]
		stats, err := eden.Run(row.cfg, func(m *eden.Master) error {
			c, err := Eden(m, in)
			got = c
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", row.cfg, err)
		}
		checkMatch(t, "eden", got, in)
		if stats.Bytes != row.bytes {
			t.Errorf("%+v: %d bytes, want %d", row.cfg, stats.Bytes, row.bytes)
		}
	}
}

func TestEdenFailsOnBufferLimit(t *testing.T) {
	// The paper's Fig. 5 failure: with ≥2 nodes, Eden's bounded message
	// buffer cannot carry the block inputs.
	in := Gen(128, 128, 128, 29)
	_, err := eden.Run(eden.Config{Processes: 4, ProcsPerNode: 2, MaxMessageBytes: 32 * 1024},
		func(m *eden.Master) error {
			_, err := Eden(m, in)
			return err
		})
	if err == nil || !errors.Is(err, transport.ErrMessageTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestRefMatchesSeq(t *testing.T) {
	in := Gen(41, 26, 35, 31)
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 2},
		{Nodes: 4, CoresPerNode: 2},
	} {
		got, err := Ref(cfg, in)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkMatch(t, "ref", got, in)
	}
}

func TestBlockDecompositionSlicesInput(t *testing.T) {
	// Each node must receive less than the full A and Bᵀ: total scattered
	// bytes stay well below nodes × (|A|+|B|). The wire shape is pinned
	// exactly, so a codec or collective that grows by one byte shows here.
	in := Gen(96, 96, 96, 103)
	cfg := cluster.Config{Nodes: 4, CoresPerNode: 2}
	stats, err := cluster.Run(cfg, func(s *cluster.Session) error {
		_, err := Triolet(s, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fullBoth := int64(4 * (len(in.A.Data) + len(in.B.Data)))
	naive := fullBoth * int64(cfg.Nodes-1) // whole input to every worker
	if stats.Bytes >= naive {
		t.Fatalf("moved %d bytes ≥ naive %d: 2-D slicing not effective", stats.Bytes, naive)
	}
	if stats.Messages != 15 || stats.Bytes != 138582 || stats.HaloBytes != 0 {
		t.Fatalf("wire %d messages / %d bytes / %d halo, want 15/138582/0", stats.Messages, stats.Bytes, stats.HaloBytes)
	}
}
