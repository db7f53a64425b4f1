package mriq

import (
	"math"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/diffcheck"
	"triolet/internal/eden"
	"triolet/internal/parboil"
)

func TestGenDeterministic(t *testing.T) {
	a := Gen(100, 32, 7)
	b := Gen(100, 32, 7)
	if parboil.MaxAbsDiff(a.X, b.X) != 0 || parboil.MaxAbsDiff(a.PhiMag, b.PhiMag) != 0 {
		t.Fatal("same seed produced different inputs")
	}
	c := Gen(100, 32, 8)
	if parboil.MaxAbsDiff(a.X, c.X) == 0 {
		t.Fatal("different seeds produced identical voxels")
	}
	if a.NumVoxels() != 100 || a.NumSamples() != 32 {
		t.Fatalf("sizes %d %d", a.NumVoxels(), a.NumSamples())
	}
}

func TestGenRanges(t *testing.T) {
	in := Gen(500, 200, 3)
	for i, v := range in.X {
		if v < 0 || v >= 1 {
			t.Fatalf("X[%d] = %v out of [0,1)", i, v)
		}
	}
	for k := range in.KX {
		if in.KX[k] < -1 || in.KX[k] > 1 || in.PhiMag[k] < 0 {
			t.Fatalf("sample %d out of range: kx=%v phi=%v", k, in.KX[k], in.PhiMag[k])
		}
	}
}

func TestSeqSingleSampleAnalytic(t *testing.T) {
	// One sample, one voxel: Q = phiMag * (cos(2πe), sin(2πe)).
	in := &Input{
		X: []float32{0.5}, Y: []float32{0.25}, Z: []float32{0},
		KX: []float32{1}, KY: []float32{1}, KZ: []float32{1},
		PhiMag: []float32{2},
	}
	got := Seq(in)[0]
	e := 2 * math.Pi * (0.5 + 0.25)
	wantRe := 2 * float32(math.Cos(e))
	wantIm := 2 * float32(math.Sin(e))
	if !diffcheck.TolMriq.Within(float64(got.Re), float64(wantRe), 0) || !diffcheck.TolMriq.Within(float64(got.Im), float64(wantIm), 0) {
		t.Fatalf("Q = %+v, want (%v, %v)", got, wantRe, wantIm)
	}
}

func TestSeqZeroTrajectory(t *testing.T) {
	// kx=ky=kz=0 → every contribution is (phiMag, 0).
	in := &Input{
		X: []float32{0.1, 0.9}, Y: []float32{0.2, 0.8}, Z: []float32{0.3, 0.7},
		KX: []float32{0, 0}, KY: []float32{0, 0}, KZ: []float32{0, 0},
		PhiMag: []float32{1.5, 2.5},
	}
	for i, q := range Seq(in) {
		if q.Re != 4 || q.Im != 0 {
			t.Fatalf("voxel %d = %+v, want (4,0)", i, q)
		}
	}
}

func checkAgainstSeq(t *testing.T, name string, got []QPoint, in *Input) {
	t.Helper()
	want := Seq(in)
	if len(got) != len(want) {
		t.Fatalf("%s: %d voxels, want %d", name, len(got), len(want))
	}
	gr, gi := SplitQ(got)
	wr, wi := SplitQ(want)
	// All implementations share VoxelQ, so results are bit-identical.
	if d := parboil.MaxAbsDiff(gr, wr); d != 0 {
		t.Fatalf("%s: Re differs by %v", name, d)
	}
	if d := parboil.MaxAbsDiff(gi, wi); d != 0 {
		t.Fatalf("%s: Im differs by %v", name, d)
	}
}

// TestTrioletMatchesSeq also pins each run's wire shape (messages, bytes,
// halo bytes) exactly, so a codec or collective that grows by one byte
// shows here.
func TestTrioletMatchesSeq(t *testing.T) {
	type wireShape struct{ msgs, bytes, halo int64 }
	small, large := Gen(333, 64, 11), Gen(2000, 256, 101)
	for _, row := range []struct {
		in           *Input
		nodes, cores int
		wire         wireShape
	}{
		{small, 1, 2, wireShape{0, 0, 0}},
		{small, 3, 2, wireShape{10, 6690, 0}},
		{small, 8, 1, wireShape{35, 13695, 0}},
		{large, 4, 2, wireShape{15, 42591, 0}},
	} {
		var got []QPoint
		stats, err := cluster.Run(cluster.Config{Nodes: row.nodes, CoresPerNode: row.cores}, func(s *cluster.Session) error {
			q, err := Triolet(s, row.in)
			got = q
			return err
		})
		if err != nil {
			t.Fatalf("%d nodes × %d cores: %v", row.nodes, row.cores, err)
		}
		checkAgainstSeq(t, "triolet", got, row.in)
		if w := (wireShape{stats.Messages, stats.Bytes, stats.HaloBytes}); w != row.wire {
			t.Errorf("%d nodes × %d cores: wire %+v, want %+v", row.nodes, row.cores, w, row.wire)
		}
	}
}

// TestEdenMatchesSeq also pins each run's fabric bytes exactly.
func TestEdenMatchesSeq(t *testing.T) {
	in := Gen(2500, 48, 13) // > 2 chunks of 1024
	for _, row := range []struct {
		cfg   eden.Config
		bytes int64
	}{
		{eden.Config{Processes: 1}, 0},
		{eden.Config{Processes: 4, ProcsPerNode: 2}, 31303},
		{eden.Config{Processes: 6, ProcsPerNode: 3}, 31303},
		{eden.Config{Processes: 8, ProcsPerNode: 2}, 31423},
	} {
		var got []QPoint
		stats, err := eden.Run(row.cfg, func(m *eden.Master) error {
			q, err := Eden(m, in)
			got = q
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", row.cfg, err)
		}
		checkAgainstSeq(t, "eden", got, in)
		if stats.Bytes != row.bytes {
			t.Errorf("%+v: %d bytes, want %d", row.cfg, stats.Bytes, row.bytes)
		}
	}
}

func TestRefMatchesSeq(t *testing.T) {
	in := Gen(257, 64, 17)
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 2},
		{Nodes: 4, CoresPerNode: 2},
	} {
		got, err := Ref(cfg, in)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkAgainstSeq(t, "ref", got, in)
	}
}

func TestEdenReplicatesSamples(t *testing.T) {
	// Eden's per-task sample replication must show up as extra traffic
	// relative to Triolet's broadcast (the paper's data-distribution
	// point). Same cluster shape, same input.
	in := Gen(4096, 256, 19)
	edenStats, err := eden.Run(eden.Config{Processes: 4, ProcsPerNode: 2}, func(m *eden.Master) error {
		_, err := Eden(m, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	trioStats, err := cluster.Run(cluster.Config{Nodes: 2, CoresPerNode: 2}, func(s *cluster.Session) error {
		_, err := Triolet(s, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if edenStats.Bytes <= trioStats.Bytes {
		t.Fatalf("eden moved %d bytes, triolet %d: replication not visible",
			edenStats.Bytes, trioStats.Bytes)
	}
}

func TestIdiomaticEdenMatchesOptimizedEden(t *testing.T) {
	// Same arithmetic in the same order: boxed lists must not change a bit.
	in := Gen(150, 40, 23)
	a := SeqEden(in)
	b := SeqEdenIdiomatic(in)
	ar, ai := SplitQ(a)
	br, bi := SplitQ(b)
	if parboil.MaxAbsDiff(ar, br) != 0 || parboil.MaxAbsDiff(ai, bi) != 0 {
		t.Fatal("idiomatic list version changed the result")
	}
}

func TestSplitQ(t *testing.T) {
	re, im := SplitQ([]QPoint{{1, 2}, {3, 4}})
	if re[1] != 3 || im[0] != 2 {
		t.Fatalf("SplitQ = %v %v", re, im)
	}
}
