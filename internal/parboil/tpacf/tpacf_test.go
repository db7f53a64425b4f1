package tpacf

import (
	"math"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/diffcheck"
	"triolet/internal/eden"
	"triolet/internal/iter"
	"triolet/internal/parboil"
)

func TestGenDeterministicAndUnit(t *testing.T) {
	a := Gen(50, 4, 16, 5)
	b := Gen(50, 4, 16, 5)
	for i := range a.Obs {
		if a.Obs[i] != b.Obs[i] {
			t.Fatal("same seed, different observed set")
		}
	}
	if len(a.Rands) != 4 || len(a.Rands[0]) != 50 || a.Bins() != 16 {
		t.Fatalf("shape wrong: %d sets, %d points, %d bins", len(a.Rands), len(a.Rands[0]), a.Bins())
	}
	for _, p := range a.Obs {
		n := math.Sqrt(float64(p.X*p.X + p.Y*p.Y + p.Z*p.Z))
		if !diffcheck.TolTpacfNorm.Within(n, 1, 0) {
			t.Fatalf("point not on unit sphere: norm %v", n)
		}
	}
}

func TestBinbDecreasing(t *testing.T) {
	in := Gen(10, 1, 20, 9)
	for k := 0; k+1 < len(in.Binb); k++ {
		if in.Binb[k] <= in.Binb[k+1] {
			t.Fatalf("binb not strictly decreasing at %d: %v %v", k, in.Binb[k], in.Binb[k+1])
		}
	}
}

func TestScoreBoundaries(t *testing.T) {
	binb := []float32{1.0001, 0.5, 0, -1.0001}
	u := Point{X: 1}
	cases := []struct {
		v    Point
		want int
	}{
		{Point{X: 1}, 0},    // dot 1 ≥ 0.5 → bin 0
		{Point{X: 0.5}, 0},  // dot 0.5 ≥ 0.5 → bin 0
		{Point{X: 0.4}, 1},  // 0 ≤ dot < 0.5 → bin 1
		{Point{Y: 1}, 1},    // dot 0 ≥ 0 → bin 1
		{Point{X: -0.5}, 2}, // dot < 0 → bin 2
		{Point{X: -1}, 2},   // dot -1 → last bin
	}
	for _, c := range cases {
		if got := Score(binb, u, c.v); got != c.want {
			t.Errorf("Score(%+v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSeqMassConservation(t *testing.T) {
	in := Gen(40, 5, 12, 11)
	res := Seq(in)
	dd, drs, rrs := in.TotalPairs()
	sum := func(h []int64) int64 {
		var s int64
		for _, v := range h {
			s += v
		}
		return s
	}
	if sum(res.DD) != dd {
		t.Fatalf("DD mass %d, want %d", sum(res.DD), dd)
	}
	if sum(res.DRS) != drs {
		t.Fatalf("DRS mass %d, want %d", sum(res.DRS), drs)
	}
	if sum(res.RRS) != rrs {
		t.Fatalf("RRS mass %d, want %d", sum(res.RRS), rrs)
	}
}

func TestSelfCorrSmall(t *testing.T) {
	// Two identical points: one pair with dot 1 → bin 0.
	binb := []float32{1.0001, 0, -1.0001}
	hist := make([]int64, 2)
	SelfCorr(binb, []Point{{X: 1}, {X: 1}}, hist)
	if hist[0] != 1 || hist[1] != 0 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestCrossCorrSmall(t *testing.T) {
	binb := []float32{1.0001, 0, -1.0001}
	hist := make([]int64, 2)
	CrossCorr(binb, []Point{{X: 1}}, []Point{{X: 1}, {X: -1}}, hist)
	if hist[0] != 1 || hist[1] != 1 {
		t.Fatalf("hist = %v", hist)
	}
}

func checkResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	if !parboil.EqualInt64(got.DD, want.DD) {
		t.Fatalf("%s: DD = %v, want %v", name, got.DD, want.DD)
	}
	if !parboil.EqualInt64(got.DRS, want.DRS) {
		t.Fatalf("%s: DRS = %v, want %v", name, got.DRS, want.DRS)
	}
	if !parboil.EqualInt64(got.RRS, want.RRS) {
		t.Fatalf("%s: RRS = %v, want %v", name, got.RRS, want.RRS)
	}
}

// TestTrioletMatchesSeq also pins each run's wire shape (messages, bytes,
// halo bytes) exactly, so a codec or collective that grows by one byte
// shows here.
func TestTrioletMatchesSeq(t *testing.T) {
	type wireShape struct{ msgs, bytes, halo int64 }
	small, large := Gen(45, 7, 14, 13), Gen(100, 12, 16, 107)
	for _, row := range []struct {
		in           *Input
		nodes, cores int
		wire         wireShape
	}{
		{small, 1, 2, wireShape{0, 0, 0}},
		{small, 3, 2, wireShape{10, 3996, 0}},
		{small, 7, 1, wireShape{30, 8700, 0}},
		{large, 4, 2, wireShape{15, 15678, 0}},
	} {
		var got Result
		stats, err := cluster.Run(cluster.Config{Nodes: row.nodes, CoresPerNode: row.cores}, func(s *cluster.Session) error {
			r, err := Triolet(s, row.in)
			got = r
			return err
		})
		if err != nil {
			t.Fatalf("%d nodes × %d cores: %v", row.nodes, row.cores, err)
		}
		checkResult(t, "triolet", got, Seq(row.in))
		if w := (wireShape{stats.Messages, stats.Bytes, stats.HaloBytes}); w != row.wire {
			t.Errorf("%d nodes × %d cores: wire %+v, want %+v", row.nodes, row.cores, w, row.wire)
		}
	}
}

func TestEdenMatchesSeq(t *testing.T) {
	in := Gen(40, 6, 14, 17)
	want := Seq(in)
	for _, cfg := range []eden.Config{
		{Processes: 1},
		{Processes: 4, ProcsPerNode: 2},
	} {
		var got Result
		_, err := eden.Run(cfg, func(m *eden.Master) error {
			r, err := Eden(m, in)
			got = r
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkResult(t, "eden", got, want)
	}
}

func TestRefMatchesSeq(t *testing.T) {
	in := Gen(40, 6, 14, 19)
	want := Seq(in)
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 3},
		{Nodes: 4, CoresPerNode: 2},
	} {
		got, err := Ref(cfg, in)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkResult(t, "ref", got, want)
	}
}

func TestFusedScoresMatchLiteralFig6Form(t *testing.T) {
	// The hot paths use selfScores/crossScores, the post-fusion form of
	// Fig. 6's correlation(score over pairs). Both forms must agree
	// bin-for-bin on every input.
	in := Gen(35, 3, 10, 29)
	lit := correlation(nil, in.Bins(), in.Binb, selfPairs(in.Obs))
	fused := iter.Histogram(in.Bins(), selfScores(in.Binb, in.Obs))
	if !parboil.EqualInt64(lit, fused) {
		t.Fatalf("self: literal %v, fused %v", lit, fused)
	}
	litX := correlation(nil, in.Bins(), in.Binb, crossPairs(in.Obs, in.Rands[0]))
	fusedX := iter.Histogram(in.Bins(), crossScores(in.Binb, in.Obs, in.Rands[0]))
	if !parboil.EqualInt64(litX, fusedX) {
		t.Fatalf("cross: literal %v, fused %v", litX, fusedX)
	}
}

func TestSeqTrioletMatchesSeq(t *testing.T) {
	in := Gen(30, 4, 12, 31)
	checkResult(t, "seq-triolet", SeqTriolet(in), Seq(in))
	checkResult(t, "seq-eden", SeqEden(in), Seq(in))
	checkResult(t, "seq-eden-idiomatic", SeqEdenIdiomatic(in), Seq(in))
}

func TestMoreSetsThanNodes(t *testing.T) {
	// Sets not divisible by node count: block partition leaves uneven
	// slices; results must still be exact.
	in := Gen(20, 11, 8, 23)
	want := Seq(in)
	var got Result
	_, err := cluster.Run(cluster.Config{Nodes: 4, CoresPerNode: 2}, func(s *cluster.Session) error {
		r, err := Triolet(s, in)
		got = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "triolet-uneven", got, want)
}
