package cutcp

import (
	"math"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/diffcheck"
	"triolet/internal/domain"
	"triolet/internal/eden"
	"triolet/internal/parboil"
	"triolet/internal/serial"
)

func smallInput(atoms int, seed uint64) *Input {
	return Gen(atoms, domain.Dim3{D: 10, H: 12, W: 11}, 0.5, 1.6, seed)
}

func TestGenDeterministicAndInBox(t *testing.T) {
	a := smallInput(50, 3)
	b := smallInput(50, 3)
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatal("same seed, different atoms")
		}
	}
	lx := float32(a.Geo.Dim.W-1) * a.Geo.Spacing
	for _, at := range a.Atoms {
		if at.X < 0 || at.X >= lx || at.Q < -1 || at.Q >= 1 {
			t.Fatalf("atom out of range: %+v", at)
		}
	}
}

func TestCellRangeClamps(t *testing.T) {
	// Atom near the low boundary: range clamps at 0.
	lo, hi := cellRange(0.1, 1.0, 0.5, 10)
	if lo != 0 {
		t.Fatalf("lo = %d", lo)
	}
	if hi != 3 { // cells at 0, 0.5, 1.0 are within 1.0 of 0.1
		t.Fatalf("hi = %d", hi)
	}
	// Atom near the high boundary.
	lo, hi = cellRange(4.4, 1.0, 0.5, 10)
	if hi != 10 {
		t.Fatalf("hi = %d", hi)
	}
	if lo != 7 { // first cell ≥ 3.4 is index 7 (3.5)
		t.Fatalf("lo = %d", lo)
	}
}

func TestContributionCutoff(t *testing.T) {
	g := Geometry{Dim: domain.Dim3{D: 4, H: 4, W: 4}, Spacing: 1, Cutoff: 1.5}
	a := Atom{X: 0, Y: 0, Z: 0, Q: 2}
	// Distance 1 → inside cutoff: q*(1-(1/1.5)²)²/1.
	v, ok := Contribution(g, a, domain.Ix3{Z: 0, Y: 0, X: 1})
	if !ok {
		t.Fatal("point inside cutoff rejected")
	}
	s := 1 - 1/(1.5*1.5)
	want := 2 * s * s
	if !diffcheck.TolCutcpPoint.Within(float64(v), float64(float32(want)), 0) {
		t.Fatalf("v = %v, want %v", v, want)
	}
	// Distance 2 → outside.
	if _, ok := Contribution(g, a, domain.Ix3{Z: 0, Y: 0, X: 2}); ok {
		t.Fatal("point outside cutoff accepted")
	}
	// Coincident point → excluded (no self-interaction singularity).
	if _, ok := Contribution(g, a, domain.Ix3{}); ok {
		t.Fatal("coincident point accepted")
	}
}

func TestSeqSingleAtomMass(t *testing.T) {
	// A single positive atom gives strictly positive potential only inside
	// its cutoff sphere.
	in := &Input{
		Atoms: []Atom{{X: 2.5, Y: 2.5, Z: 2.5, Q: 1}},
		Geo:   Geometry{Dim: domain.Dim3{D: 11, H: 11, W: 11}, Spacing: 0.5, Cutoff: 1.2},
	}
	grid := Seq(in)
	nonzero := 0
	for i, v := range grid {
		ix := in.Geo.Dim.Unlinear(i)
		dx := float64(ix.X)*0.5 - 2.5
		dy := float64(ix.Y)*0.5 - 2.5
		dz := float64(ix.Z)*0.5 - 2.5
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		inside := r < 1.2 && r > 0
		if inside && v <= 0 {
			t.Fatalf("inside point %v has potential %v", ix, v)
		}
		if !inside && v != 0 {
			t.Fatalf("outside point %v has potential %v", ix, v)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no grid point received potential")
	}
}

// checkGrid compares against Seq under the FP contract: parallel schedules
// add each point's contributions in different orders.
func checkGrid(t *testing.T, name string, got []float32, in *Input) {
	t.Helper()
	checkGrids(t, name, got, Seq(in), in)
}

// checkGrids requires every point of two grids of in to agree within
// diffcheck.TolCutcpGrid, scaled by the point's conditioning: the number of
// atoms within the cutoff times the sum of their contributions' magnitudes.
func checkGrids(t *testing.T, name string, got, want []float32, in *Input) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
	}
	terms := make([]int, len(want))
	scale := make([]float64, len(want))
	for _, a := range in.Atoms {
		for _, u := range nestUpdates(in.Geo, a, domain.Range{Hi: in.Geo.Dim.D}) {
			terms[u.I]++
			scale[u.I] += math.Abs(float64(u.W))
		}
	}
	for i := range want {
		if s := float64(terms[i]) * scale[i]; !diffcheck.TolCutcpGrid.Within(float64(got[i]), float64(want[i]), s) {
			t.Fatalf("%s: point %d: %v vs %v, beyond %g at scale %g",
				name, i, got[i], want[i], diffcheck.TolCutcpGrid.RelDiff, s)
		}
	}
}

// TestTrioletMatchesSeq also pins each run's wire shape (messages, bytes,
// halo bytes) exactly, so a codec or collective that grows by one byte
// shows here.
func TestTrioletMatchesSeq(t *testing.T) {
	type wireShape struct{ msgs, bytes, halo int64 }
	small := smallInput(120, 7)
	large := Gen(300, domain.Dim3{D: 16, H: 16, W: 16}, 0.5, 2.0, 109)
	for _, row := range []struct {
		in           *Input
		nodes, cores int
		wire         wireShape
	}{
		{small, 1, 2, wireShape{0, 0, 0}},
		{small, 3, 2, wireShape{10, 12012, 0}},
		{small, 8, 1, wireShape{35, 39242, 0}},
		{large, 4, 2, wireShape{15, 53010, 0}},
	} {
		var got []float32
		stats, err := cluster.Run(cluster.Config{Nodes: row.nodes, CoresPerNode: row.cores}, func(s *cluster.Session) error {
			g, err := Triolet(s, row.in)
			got = g
			return err
		})
		if err != nil {
			t.Fatalf("%d nodes × %d cores: %v", row.nodes, row.cores, err)
		}
		checkGrid(t, "triolet", got, row.in)
		if w := (wireShape{stats.Messages, stats.Bytes, stats.HaloBytes}); w != row.wire {
			t.Errorf("%d nodes × %d cores: wire %+v, want %+v", row.nodes, row.cores, w, row.wire)
		}
	}
}

// TestEdenMatchesSeq also pins each run's fabric bytes exactly.
func TestEdenMatchesSeq(t *testing.T) {
	in := smallInput(90, 11)
	for _, row := range []struct {
		cfg   eden.Config
		bytes int64
	}{
		{eden.Config{Processes: 1}, 0},
		{eden.Config{Processes: 4, ProcsPerNode: 2}, 22908},
		{eden.Config{Processes: 8, ProcsPerNode: 2}, 55502},
	} {
		var got []float32
		stats, err := eden.Run(row.cfg, func(m *eden.Master) error {
			g, err := Eden(m, in)
			got = g
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", row.cfg, err)
		}
		checkGrid(t, "eden", got, in)
		if stats.Bytes != row.bytes {
			t.Errorf("%+v: %d bytes, want %d", row.cfg, stats.Bytes, row.bytes)
		}
	}
}

func TestRefMatchesSeq(t *testing.T) {
	in := smallInput(100, 13)
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 2},
		{Nodes: 4, CoresPerNode: 2},
	} {
		got, err := Ref(cfg, in)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkGrid(t, "ref", got, in)
	}
}

// TestGeoCodecRejectsUnallocatableGrid feeds the geometry decoder a grid
// with a negative side and one whose D·H·W overflows int: a worker sizes a
// grid from what it decodes, so both must fail the reader.
func TestGeoCodecRejectsUnallocatableGrid(t *testing.T) {
	gc := geoCodec()
	ok := Geometry{Dim: domain.Dim3{D: 3, H: 4, W: 5}, Spacing: 0.5, Cutoff: 1.5}
	if got, err := serial.Unmarshal(gc, serial.Marshal(gc, ok)); err != nil || got != ok {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, ok)
	}
	for _, d := range []domain.Dim3{
		{D: 3, H: -4, W: 5},
		{D: -1, H: 0, W: 0},
		{D: 1 << 22, H: 1 << 22, W: 1 << 22},
		{D: 2, H: math.MaxInt / 2, W: 3},
	} {
		b := serial.Marshal(gc, Geometry{Dim: d, Spacing: 0.5, Cutoff: 1.5})
		if got, err := serial.Unmarshal(gc, b); err == nil {
			t.Errorf("grid %v decoded as %+v, want an error", d, got)
		}
	}
}

func TestTrioletIteratorPipelineExactVsAccumulate(t *testing.T) {
	// With a single node and a single core there is one summation order;
	// the iterator pipeline must then match the imperative kernel exactly,
	// demonstrating the fusion is value-preserving.
	in := smallInput(40, 17)
	var got []float32
	_, err := cluster.Run(cluster.Config{Nodes: 1, CoresPerNode: 1}, func(s *cluster.Session) error {
		g, err := Triolet(s, in)
		got = g
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Seq(in)
	if d := parboil.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("single-threaded pipeline differs by %v", d)
	}
}

func TestIdiomaticEdenMatchesSeqExactly(t *testing.T) {
	// Accumulation order matches Seq, so boxed-list materialization must
	// not change a single bit.
	in := smallInput(80, 23)
	want := Seq(in)
	got := SeqEdenIdiomatic(in)
	if d := parboil.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("idiomatic grid differs by %v", d)
	}
}

func TestAtomBoxInsideGrid(t *testing.T) {
	in := smallInput(200, 19)
	for _, a := range in.Atoms {
		zr, yr, xr := AtomBox(in.Geo, a)
		if zr.Lo < 0 || zr.Hi > in.Geo.Dim.D || yr.Lo < 0 || yr.Hi > in.Geo.Dim.H || xr.Lo < 0 || xr.Hi > in.Geo.Dim.W {
			t.Fatalf("box %v %v %v outside grid for %+v", zr, yr, xr, a)
		}
	}
}
