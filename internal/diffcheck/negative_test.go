package diffcheck

import (
	"strings"
	"testing"

	"triolet/internal/domain"
)

// legacyFold reproduces the reduction shape the deterministic skeletons
// replaced: chunk partials grouped by the node partition, each group left-
// folded on its node, the per-node partials left-folded at the master. Its
// rounding depends on the node count — the bug the oracle exists to catch.
func legacyFold(vs []float64, nodes int) float64 {
	total := 0.0
	for _, r := range domain.BlockPartition(len(vs), nodes) {
		part := 0.0
		for _, v := range vs[r.Lo:r.Hi] {
			part += v
		}
		total += part
	}
	return total
}

// compareLegacy is Compare with the pre-fix distributed float reduction put
// back: the same per-chunk parts the Par executor collects, merged by
// mergeObs, then FSum and FAbs re-folded node-grouped.
func compareLegacy(p Pipeline, a, b Mode, opt Options) (*Mismatch, error) {
	run := func(m Mode) (Obs, error) {
		parts, err := parParts(p, m, opt)
		if err != nil {
			return Obs{}, err
		}
		o := mergeObs(parts)
		fs, fa := make([]float64, len(parts)), make([]float64, len(parts))
		for i, part := range parts {
			fs[i], fa[i] = part.FSum, part.FAbs
		}
		o.FSum, o.FAbs = legacyFold(fs, m.nodes()), legacyFold(fa, m.nodes())
		return o, nil
	}
	oa, err := run(a)
	if err != nil {
		return nil, err
	}
	ob, err := run(b)
	if err != nil {
		return nil, err
	}
	if field, detail := diffObs(oa, ob, fsumBitExact(a, b)); field != "" {
		return &Mismatch{Pipeline: p, A: a, B: b, Field: field, Detail: detail}, nil
	}
	return nil, nil
}

// The oracle must catch the bug class it was built for. compareLegacy
// reintroduces the pre-fix distributed float reduction — per-node left
// folds over a node-count-dependent grouping — and the oracle's comparison
// has to flag the divergence between node counts, shrink it, and emit a
// reproducer naming the mode pair.
func TestOracleCatchesReintroducedRoundingDivergence(t *testing.T) {
	// Small chunks so even the minimized pipeline spans several chunks,
	// keeping the node-grouping of partials visible.
	opt := Options{Chunk: 4}
	a := Mode{Engine: Block, Exec: Par, Nodes: 1}
	b := Mode{Engine: Block, Exec: Par, Nodes: 2}

	p := Pipeline{Seed: spikeSeed(64)}
	m, err := compareLegacy(p, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("oracle missed the re-introduced legacy float reduction")
	}
	if m.Field != "FSum" {
		t.Fatalf("divergence flagged on %s, want FSum: %s", m.Field, m)
	}

	failing := func(q Pipeline) bool {
		mm, err := compareLegacy(q, a, b, opt)
		return err == nil && mm != nil
	}
	shrunk := Shrink(p, failing, 300)
	if !failing(shrunk) {
		t.Fatalf("shrunk pipeline no longer fails: %s", shrunk)
	}
	if len(shrunk.Seed) >= len(p.Seed) {
		t.Fatalf("shrinker made no progress: %d elems -> %d", len(p.Seed), len(shrunk.Seed))
	}
	// The minimal divergent case needs four chunks (with fewer, the
	// node-grouped left folds associate identically to the flat left
	// fold); with Chunk=4 that is at most 16 elements.
	if len(shrunk.Seed) > 16 {
		t.Fatalf("shrunk seed still has %d elems, want <= 16: %#v", len(shrunk.Seed), shrunk.Seed)
	}

	repro := Reproducer(shrunk, a, b, opt)
	for _, want := range []string{
		"func TestDiffcheckRegression",
		"diffcheck.Compare",
		"Nodes: 1",
		"Nodes: 2",
		"Chunk: 4",
	} {
		if !strings.Contains(repro, want) {
			t.Fatalf("reproducer missing %q:\n%s", want, repro)
		}
	}
	t.Logf("minimized to %d elems; reproducer:\n%s", len(shrunk.Seed), repro)
}

// Sanity: with the fix in place (no legacy fold) the identical
// configuration is bit-identical, so the negative test above fails for the
// right reason.
func TestFixedReductionPassesWhereLegacyFails(t *testing.T) {
	opt := Options{Chunk: 4}
	m, err := Compare(Pipeline{Seed: spikeSeed(64)},
		Mode{Engine: Block, Exec: Par, Nodes: 1},
		Mode{Engine: Block, Exec: Par, Nodes: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("fixed reduction diverges: %s", m)
	}
}
