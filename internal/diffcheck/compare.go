package diffcheck

import (
	"fmt"
	"math"
)

// Tolerance is one entry of the repo's single floating-point comparison
// contract. Every cross-implementation float comparison — the oracle's
// float-sum check and the parboil benchmark equivalence tests — names an
// entry from the table below instead of carrying its own ad-hoc epsilon.
type Tolerance struct {
	// RelDiff is the maximum allowed relative difference, with the
	// denominator floored at Floor. Used when Abs is zero.
	RelDiff float64
	Floor   float64
	// Abs, when non-zero, switches to a plain absolute-difference bound.
	Abs float64
}

// The FP contract table. Integer and histogram results never appear here:
// they are bit-identical across modes by contract, no tolerance.
var (
	// TolFloatSum bounds a chunked deterministic float64 sum against the
	// sequential left fold of the same data. The oracle scales the check by
	// the sum of absolute values (see Within's scale parameter), so
	// catastrophic cancellation does not produce false alarms.
	TolFloatSum = Tolerance{RelDiff: 1e-9, Floor: 1e-9}
	// TolCutcpGrid bounds one point of cutcp's float32 potential grid
	// across execution modes, conditioning-scaled like TolFloatSum: a point
	// is the float32 sum of the k contributions of the atoms within the
	// cutoff, and any two summation orders of those terms differ by at most
	// 2·(k−1)·u·Σ|term|, u = 2⁻²⁴ the float32 unit roundoff. Callers pass
	// k·Σ|term|, computed from the input, as Within's scale, so one bound
	// holds for every input size and schedule.
	TolCutcpGrid = Tolerance{RelDiff: 0x1p-23}
	// TolCutcpPoint bounds a single cutcp potential value.
	TolCutcpPoint = Tolerance{Abs: 1e-6}
	// TolMriq bounds mri-q's reconstructed Q values.
	TolMriq = Tolerance{Abs: 1e-6}
	// TolSgemm bounds sgemm result elements (float32 dot products).
	TolSgemm = Tolerance{Abs: 1e-5}
	// TolTpacfNorm bounds tpacf's normalization sanity value.
	TolTpacfNorm = Tolerance{Abs: 1e-5}
)

// Within reports whether a and b agree under the tolerance. scale, when
// positive, joins the relative denominator — pass a magnitude that
// reflects the computation's conditioning (e.g. the sum of absolute
// values for a float sum) so cancellation near zero is judged fairly; pass
// 0 for plain value-relative comparison.
func (t Tolerance) Within(a, b, scale float64) bool {
	d := math.Abs(a - b)
	if t.Abs > 0 {
		return d <= t.Abs
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	den = math.Max(den, scale)
	den = math.Max(den, t.Floor)
	return d <= t.RelDiff*den
}

// Mismatch is one detected cross-mode divergence.
type Mismatch struct {
	Pipeline Pipeline
	A, B     Mode
	Field    string // "Elems", "Count", "Sum", "Hist", "FSum", "Ref"
	Detail   string
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("diffcheck: %s vs %s diverge on %s: %s\n  %s",
		m.A, m.B, m.Field, m.Detail, m.Pipeline)
}

// fsumBitExact reports whether the FP contract demands bit-identical
// float sums between two modes. The chunked executors (LocalPar and Par at
// any node count, either engine, any fabric or lifecycle) form one
// deterministic family; Seq is its own (left-fold) family. Within a family
// the contract is bitwise; across families it is TolFloatSum.
func fsumBitExact(a, b Mode) bool { return (a.Exec == Seq) == (b.Exec == Seq) }

// diffObs compares two observations under the contract and returns the
// first diverging field ("" when they agree).
func diffObs(a, b Obs, bitExact bool) (field, detail string) {
	if a.Count != b.Count {
		return "Count", fmt.Sprintf("%d vs %d", a.Count, b.Count)
	}
	if a.Sum != b.Sum {
		return "Sum", fmt.Sprintf("%d vs %d", a.Sum, b.Sum)
	}
	if len(a.Elems) != len(b.Elems) {
		return "Elems", fmt.Sprintf("%d elems vs %d", len(a.Elems), len(b.Elems))
	}
	for i := range a.Elems {
		if a.Elems[i] != b.Elems[i] {
			return "Elems", fmt.Sprintf("elem %d: %d vs %d", i, a.Elems[i], b.Elems[i])
		}
	}
	for i := 0; i < len(a.Hist) && i < len(b.Hist); i++ {
		if a.Hist[i] != b.Hist[i] {
			return "Hist", fmt.Sprintf("bin %d: %d vs %d", i, a.Hist[i], b.Hist[i])
		}
	}
	if bitExact {
		if math.Float64bits(a.FSum) != math.Float64bits(b.FSum) {
			return "FSum", fmt.Sprintf("bits %x (%v) vs %x (%v)",
				math.Float64bits(a.FSum), a.FSum, math.Float64bits(b.FSum), b.FSum)
		}
	} else if !TolFloatSum.Within(a.FSum, b.FSum, math.Max(a.FAbs, b.FAbs)) {
		return "FSum", fmt.Sprintf("%v vs %v (scale %v, tol %v)",
			a.FSum, b.FSum, math.Max(a.FAbs, b.FAbs), TolFloatSum.RelDiff)
	}
	return "", ""
}

// Compare runs p under both modes and diffs the observations under the FP
// contract. nil means the modes agree.
func Compare(p Pipeline, a, b Mode, opt Options) (*Mismatch, error) {
	oa, err := Run(p, a, opt)
	if err != nil {
		return nil, err
	}
	ob, err := Run(p, b, opt)
	if err != nil {
		return nil, err
	}
	if field, detail := diffObs(oa, ob, fsumBitExact(a, b)); field != "" {
		return &Mismatch{Pipeline: p, A: a, B: b, Field: field, Detail: detail}, nil
	}
	return nil, nil
}

// CheckModes verifies p across a whole mode list: modes[0] is the
// reference (conventionally Seq/PerElement), its elements are additionally
// checked against the plain-slice reference semantics, and every other
// mode is compared to it — plus pairwise bit-exactness within the
// deterministic family. The first mismatch is returned; nil means every
// mode agreed.
func CheckModes(p Pipeline, modes []Mode, opt Options) (*Mismatch, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("diffcheck: no modes")
	}
	obs := make([]Obs, len(modes))
	for i, m := range modes {
		o, err := Run(p, m, opt)
		if err != nil {
			return nil, fmt.Errorf("diffcheck: %s: %w", m, err)
		}
		obs[i] = o
	}
	// Ground truth: the reference mode must reproduce the slice semantics.
	if ref, ok := p.Ref(refLimit); ok {
		if len(ref) != len(obs[0].Elems) {
			return &Mismatch{Pipeline: p, A: modes[0], B: modes[0], Field: "Ref",
				Detail: fmt.Sprintf("%d elems vs reference %d", len(obs[0].Elems), len(ref))}, nil
		}
		for i := range ref {
			if ref[i] != obs[0].Elems[i] {
				return &Mismatch{Pipeline: p, A: modes[0], B: modes[0], Field: "Ref",
					Detail: fmt.Sprintf("elem %d: %d vs reference %d", i, obs[0].Elems[i], ref[i])}, nil
			}
		}
	}
	for i := 1; i < len(modes); i++ {
		if field, detail := diffObs(obs[0], obs[i], fsumBitExact(modes[0], modes[i])); field != "" {
			return &Mismatch{Pipeline: p, A: modes[0], B: modes[i], Field: field, Detail: detail}, nil
		}
	}
	// Deterministic family: every chunked mode must match every other
	// bit-for-bit, node count and schedule notwithstanding.
	det := -1
	for i, m := range modes {
		if m.Exec == Seq {
			continue
		}
		if det < 0 {
			det = i
			continue
		}
		if field, detail := diffObs(obs[det], obs[i], true); field != "" {
			return &Mismatch{Pipeline: p, A: modes[det], B: modes[i], Field: field, Detail: detail}, nil
		}
	}
	return nil, nil
}
