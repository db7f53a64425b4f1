package harness

import (
	"strings"
	"testing"
	"time"

	"triolet/internal/perfmodel"
)

// The full sweep, end to end: every benchmark must verify against its
// sequential reference under whatever configuration the planner picked,
// and the table must render.
func TestAutoSweepVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("full autopar sweep is slow under -short")
	}
	res := AutoSweep(2)
	if len(res.Points) != 4 {
		t.Fatalf("%d sweep points, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.OK {
			t.Errorf("%s failed: %s", p.Bench, p.Verify)
		}
		if p.Obs <= 0 || p.Pred <= 0 {
			t.Errorf("%s has empty timings: %+v", p.Bench, p)
		}
		if len(p.Hand) != len(handNodeCounts) || p.Best <= 0 {
			t.Errorf("%s hand sweep incomplete: %v", p.Bench, p.Hand)
		}
	}
	table := AutoTable(res)
	for _, want := range []string{"sgemm", "mri-q", "tpacf", "cutcp", "ratio"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestAutoTaskRanges(t *testing.T) {
	cover := func(elems, n int) {
		ranges := autoTaskRanges(elems, n)
		next := 0
		for _, rg := range ranges {
			if rg.Lo != next || rg.Hi <= rg.Lo {
				t.Fatalf("ranges(%d,%d): bad range %v after %d", elems, n, rg, next)
			}
			next = rg.Hi
		}
		if next != elems {
			t.Fatalf("ranges(%d,%d) cover %d elems", elems, n, next)
		}
	}
	cover(100, 7)
	cover(8, 8)
	cover(3, 16) // more tasks than elems: collapses to one per elem
	cover(1, 1)
}

// AutoGate enforces both acceptance clauses.
func TestAutoGateClauses(t *testing.T) {
	good := AutoPoint{Bench: "b", OK: true, Ratio: 1.05, Best: time.Millisecond}
	if err := AutoGate(&AutoSweepResult{Points: []AutoPoint{good}}, 1.10); err != nil {
		t.Fatalf("good point rejected: %v", err)
	}
	bad := good
	bad.OK = false
	if AutoGate(&AutoSweepResult{Points: []AutoPoint{bad}}, 1.10) == nil {
		t.Fatal("unverified point passed the gate")
	}
	slow := good
	slow.Ratio = 1.3
	if AutoGate(&AutoSweepResult{Points: []AutoPoint{slow}}, 1.10) == nil {
		t.Fatal("slow point passed the gate")
	}
}

// snapshotBaseCal is the static calibration the sweep's planner once read
// from its persisted snapshot (CalibratePlanning on a 2-vCPU linux/amd64
// host), rounded to two digits as perfmodel's fixtureCal is.
var snapshotBaseCal = perfmodel.Calibration{
	MRIQUnit:     [3]float64{perfmodel.Triolet: 6.0e-8},
	SGEMMMac:     [3]float64{perfmodel.Triolet: 1.2e-9},
	TPACFPair:    [3]float64{perfmodel.Triolet: 4.4e-8},
	CUTCPCell:    [3]float64{perfmodel.Triolet: 1.4e-8},
	SerPerByte:   7.8e-10,
	AllocPerByte: 1.2e-10,
	AddF32:       7.8e-10,
}

// The sweep plans from its calibration alone, and a kernel unit cost that
// drifts across the span an online recalibrator learned on record (0.73 to
// 1.41 times the calibrated cost) changes no plan: at every modeled core
// count each port's (Mode, Nodes, Tasks, Grain) is the same with every unit
// cost scaled by 0.7, 1.5 or 2. Nothing runs.
func TestAutoPlansStableUnderUnitCostScale(t *testing.T) {
	type decision struct {
		mode                perfmodel.ExecMode
		nodes, tasks, grain int
	}
	plan := func(w perfmodel.Workload, physCores int, scale float64) decision {
		cal := snapshotBaseCal
		for _, unit := range []*[3]float64{&cal.MRIQUnit, &cal.SGEMMMac, &cal.TPACFPair, &cal.CUTCPCell} {
			unit[perfmodel.Triolet] *= scale
		}
		pl := perfmodel.NewPlanner(cal, perfmodel.VirtualMachine(), 2)
		pl.PhysCores = physCores
		p := pl.Plan(w)
		return decision{p.Mode, p.Nodes, p.Tasks, p.Grain}
	}
	for _, b := range autoBenches(autoSweepData()) {
		for _, physCores := range []int{0, 1, 2, 4, 8, 16} {
			want := plan(b.w, physCores, 1)
			for _, scale := range []float64{0.7, 1.5, 2} {
				if got := plan(b.w, physCores, scale); got != want {
					t.Errorf("%s at PhysCores %d: unit costs x%g plan %+v, x1 plans %+v",
						b.name, physCores, scale, got, want)
				}
			}
		}
	}
}
