package perfmodel_test

// The planner-to-oracle pinning test (an external test file: perfmodel
// cannot import diffcheck in non-test code without entangling the model in
// the executor's dependency tree). Whatever configuration the planner
// emits — placement, node count, grain — must be one the cross-mode
// determinism oracle certifies: running a pipeline under the planned mode
// with the planned grain as the chunk width may never diverge from the
// sequential reference.

import (
	"testing"

	"triolet/internal/diffcheck"
	"triolet/internal/iter"
	"triolet/internal/perfmodel"
)

// oracleMode projects a plan onto the diffcheck execution matrix the same
// way the runtime realizes it: seq on one goroutine, farm as distributed
// chunks over Nodes ranks.
func oracleMode(p perfmodel.Plan) diffcheck.Mode {
	switch p.Mode {
	case perfmodel.ExecSeq:
		return diffcheck.Mode{Engine: diffcheck.Block, Exec: diffcheck.Seq}
	default:
		return diffcheck.Mode{Engine: diffcheck.Block, Exec: diffcheck.Par, Nodes: p.Nodes}
	}
}

func TestPlannerConfigsPassDeterminismOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed oracle cells are slow under -short")
	}
	pl := perfmodel.NewPlanner(perfmodel.CalibratePlanning(), perfmodel.VirtualMachine(), 4)

	// Workloads spanning the decision space: a tiny job (seq), a mid-size
	// pool-friendly job, and compute-heavy jobs that must distribute.
	workloads := []perfmodel.Workload{
		{Name: "o-tiny", Elems: 64, UnitsPerElem: 1, Class: perfmodel.CostGeneric, UnitCost: 2e-9},
		{Name: "o-mid", Elems: 4096, UnitsPerElem: 50, Class: perfmodel.CostGeneric, UnitCost: 5e-9},
		{Name: "o-heavy", Elems: 4096, BytesPerElem: 8, BytesPerResult: 8,
			UnitsPerElem: 2e5, Class: perfmodel.CostMRIQ, Reduce: perfmodel.ReduceGather},
		{Name: "o-grid", Elems: 2048, BytesPerElem: 16,
			UnitsPerElem: 1e5, Class: perfmodel.CostCUTCP, Reduce: perfmodel.ReduceGrid, ReduceBytes: 4096},
	}

	seed := make([]int64, 4096)
	for i := range seed {
		seed[i] = int64(7*i - 1000)
	}
	sawFarm, sawLocal := false, false
	for _, w := range workloads {
		p := pl.Plan(w)
		if p.Mode == perfmodel.ExecFarm {
			sawFarm = true
		} else {
			sawLocal = true
		}
		pipe := diffcheck.Pipeline{
			Seed: seed[:w.Elems],
			Ops:  []iter.PipeOp{{Kind: 0, A: 3, B: 5}},
		}
		modes := []diffcheck.Mode{
			{Engine: diffcheck.PerElement, Exec: diffcheck.Seq}, // reference
			oracleMode(p),
		}
		m, err := diffcheck.CheckModes(pipe, modes, diffcheck.Options{Chunk: p.Grain, Cores: pl.Cores})
		if err != nil {
			t.Fatalf("%s (%s): oracle error: %v", w.Name, p, err)
		}
		if m != nil {
			t.Fatalf("%s: planner chose %s, oracle flags divergence:\n%s", w.Name, p, m)
		}
	}
	// The pin is only meaningful if the planner actually exercised both
	// sides of the placement decision.
	if !sawFarm || !sawLocal {
		t.Fatalf("workload set no longer spans the decision space (farm=%v local=%v)", sawFarm, sawLocal)
	}
}
