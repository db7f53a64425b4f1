package cutcp

import (
	"math"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/diffcheck"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/parboil"
)

// nestUpdates records the (bin, weight) updates Accumulate's loop nest
// makes for one atom on the planes zClip, bins rebased to zClip.Lo — the
// reference the partial indexer must reproduce in order.
func nestUpdates(g Geometry, a Atom, zClip domain.Range) []iter.Bin[float32] {
	var out []iter.Bin[float32]
	zr, yr, xr := AtomBox(g, a)
	zr = zr.Intersect(zClip)
	for z := zr.Lo; z < zr.Hi; z++ {
		for y := yr.Lo; y < yr.Hi; y++ {
			base := ((z-zClip.Lo)*g.Dim.H + y) * g.Dim.W
			for x := xr.Lo; x < xr.Hi; x++ {
				if v, ok := Contribution(g, a, domain.Ix3{Z: z, Y: y, X: x}); ok {
					out = append(out, iter.Bin[float32]{I: base + x, W: v})
				}
			}
		}
	}
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGridPtsYieldsAccumulateUpdatesInOrder: for atoms whose boxes are
// interior, face-, edge- and corner-clipped or wholly outside, and for slab
// clips including an empty one, the generator's update sequence equals the
// loop nest's — same bins, same order, same bits.
func TestGridPtsYieldsAccumulateUpdatesInOrder(t *testing.T) {
	g := Geometry{Dim: domain.Dim3{D: 10, H: 12, W: 11}, Spacing: 0.5, Cutoff: 1.6}
	rng := parboil.NewRand(20140215)
	// Per-axis placement: 0 interior, 1 clipped low, 2 clipped high, 3 outside.
	place := func(kind, n int) float32 {
		ext := float32(n-1) * g.Spacing
		switch kind {
		case 0:
			return g.Cutoff + rng.Float32()*(ext-2*g.Cutoff)
		case 1:
			return (rng.Float32() - 0.5) * g.Cutoff
		case 2:
			return ext + (rng.Float32()-0.5)*g.Cutoff
		}
		return ext + g.Cutoff*(1.5+rng.Float32())
	}
	clips := []domain.Range{
		{Lo: 0, Hi: g.Dim.D}, {Lo: 0, Hi: 3}, {Lo: 3, Hi: 7}, {Lo: 7, Hi: g.Dim.D}, {Lo: 4, Hi: 4},
	}
	whole := make([]float32, g.Points())
	replay := make([]float32, g.Points())
	for kinds := 0; kinds < 4*4*4; kinds++ {
		a := Atom{
			X: place(kinds%4, g.Dim.W), Y: place(kinds/4%4, g.Dim.H), Z: place(kinds/16, g.Dim.D),
			Q: rng.Float32()*2 - 1,
		}
		for _, clip := range clips {
			want := nestUpdates(g, a, clip)
			got := iter.ToSlice(gridPts(g, a, clip))
			if len(got) != len(want) {
				t.Fatalf("atom %+v clip %v: %d updates, nest makes %d", a, clip, len(got), len(want))
			}
			for i := range want {
				if got[i].I != want[i].I || math.Float32bits(got[i].W) != math.Float32bits(want[i].W) {
					t.Fatalf("atom %+v clip %v: update %d = %+v, nest makes %+v", a, clip, i, got[i], want[i])
				}
			}
		}
		// The reference is Accumulate's nest, not a look-alike.
		Accumulate(g, a, whole)
		for _, u := range nestUpdates(g, a, clips[0]) {
			replay[u.I] += u.W
		}
	}
	if !sameBits(replay, whole) {
		t.Fatal("nestUpdates does not replay Accumulate")
	}
}

// TestOutOfGridAtomsContributeNothing: an atom more than a cutoff outside
// the grid has an empty box. The iterator pipelines used to panic on its
// negative extent (iter: IdxRange(-90)) — or, outside on two axes, to turn
// negative × negative into a positive row count — where Seq adds nothing.
func TestOutOfGridAtomsContributeNothing(t *testing.T) {
	in := smallInput(30, 61)
	g := in.Geo
	ex, ey, ez := float32(g.Dim.W-1)*g.Spacing, float32(g.Dim.H-1)*g.Spacing, float32(g.Dim.D-1)*g.Spacing
	far := 3 * g.Cutoff
	inf := float32(math.Inf(1))
	outside := []Atom{
		// One axis, either side.
		Atom{X: -far, Y: 2, Z: 2, Q: 1}, Atom{X: ex + far, Y: 2, Z: 2, Q: 1},
		Atom{X: 2, Y: -far, Z: 2, Q: 1}, Atom{X: 2, Y: ey + far, Z: 2, Q: 1},
		Atom{X: 2, Y: 2, Z: -far, Q: 1}, Atom{X: 2, Y: 2, Z: ez + far, Q: 1},
		// Two and three axes at once.
		Atom{X: 2, Y: -far, Z: -far, Q: 1}, Atom{X: -far, Y: 2, Z: ez + far, Q: 1},
		Atom{X: ex + far, Y: ey + far, Z: 2, Q: 1}, Atom{X: -far, Y: -far, Z: -far, Q: 1},
		// What a hostile frame can carry through atomsCodec.
		Atom{X: inf, Y: 2, Z: 2, Q: 1}, Atom{X: 2, Y: -inf, Z: 2, Q: 1},
		Atom{X: 2, Y: 2, Z: float32(math.NaN()), Q: 1}, Atom{X: 1e30, Y: -1e30, Z: 2, Q: 1},
	}
	// Exactly a cutoff outside: the box is the boundary plane, its cells at
	// r == c up to float32 rounding.
	boundary := []Atom{
		{X: 2, Y: 2, Z: -g.Cutoff, Q: 1}, {X: 2, Y: ey + g.Cutoff, Z: 2, Q: 1},
		{X: ex + g.Cutoff, Y: -g.Cutoff, Z: 2, Q: 1},
	}
	for _, a := range outside {
		zr, yr, xr := AtomBox(g, a)
		if zr.Len() < 0 || yr.Len() < 0 || xr.Len() < 0 {
			t.Fatalf("atom %+v: negative box %v %v %v", a, zr, yr, xr)
		}
		if n, _ := gridPts(g, a, domain.Range{Hi: g.Dim.D}).OuterLen(); n != 0 {
			t.Fatalf("atom %+v: generator extent %d for box %v %v %v, want 0", a, n, zr, yr, xr)
		}
	}
	for _, a := range boundary {
		whole := domain.Range{Hi: g.Dim.D}
		if got, want := iter.Count(gridPts(g, a, whole)), len(nestUpdates(g, a, whole)); got != want || want > 1 {
			t.Fatalf("atom %+v a cutoff outside: %d updates, nest makes %d", a, got, want)
		}
	}
	in.Atoms = append(append(in.Atoms, outside...), boundary...)
	want := Seq(in)
	if got := SeqTriolet(in); !sameBits(got, want) {
		t.Fatalf("SeqTriolet differs from Seq by %v", parboil.MaxAbsDiff(got, want))
	}
	for _, cfg := range []cluster.Config{
		{Nodes: 1, CoresPerNode: 1},
		{Nodes: 2, CoresPerNode: 2},
	} {
		for name, run := range map[string]func(*cluster.Session, *Input) ([]float32, error){
			"triolet": Triolet, "slab": TrioletSlab,
		} {
			var got []float32
			_, err := cluster.Run(cfg, func(s *cluster.Session) error {
				g, err := run(s, in)
				got = g
				return err
			})
			if err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			if cfg.Nodes*cfg.CoresPerNode == 1 {
				// One summation order: the wire and the skeleton add no bit.
				if !sameBits(got, want) {
					t.Fatalf("%s %+v differs from Seq by %v", name, cfg, parboil.MaxAbsDiff(got, want))
				}
			}
			checkGrid(t, name, got, in)
		}
	}
}

// TestSeqTrioletEqualsSeqExactly: the single-threaded pipeline applies
// Seq's updates in Seq's order.
func TestSeqTrioletEqualsSeqExactly(t *testing.T) {
	for _, seed := range []uint64{17, 99173} {
		in := smallInput(200, seed)
		if got, want := SeqTriolet(in), Seq(in); !sameBits(got, want) {
			t.Fatalf("seed %d: SeqTriolet differs from Seq by %v", seed, parboil.MaxAbsDiff(got, want))
		}
	}
}

// TestSlabMatchesReplicated: both skeletons run the one generator, clipped
// to a slab or to the whole grid; they differ only in summation order.
func TestSlabMatchesReplicated(t *testing.T) {
	in := smallInput(150, 67)
	run := func(f func(*cluster.Session, *Input) ([]float32, error)) []float32 {
		var got []float32
		_, err := cluster.Run(cluster.Config{Nodes: 3, CoresPerNode: 2}, func(s *cluster.Session) error {
			g, err := f(s, in)
			got = g
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	replicated, slab := run(Triolet), run(TrioletSlab)
	if len(slab) != len(replicated) {
		t.Fatalf("slab has %d points, replicated %d", len(slab), len(replicated))
	}
	if d := diffcheck.TolCutcpGrid.MaxRelDiffF32(slab, replicated); d > diffcheck.TolCutcpGrid.RelDiff {
		t.Fatalf("slab vs replicated: max rel diff %v", d)
	}
	checkGrid(t, "triolet", replicated, in)
}
