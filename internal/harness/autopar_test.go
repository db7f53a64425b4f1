package harness

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"triolet/internal/perfmodel"
)

// The full sweep, end to end: every benchmark must verify against its
// sequential reference under whatever configuration the planner picked,
// the table must render, and the calibration snapshot must persist so a
// second sweep resumes from it.
func TestAutoSweepVerifiesAndPersists(t *testing.T) {
	if testing.Short() {
		t.Skip("full autopar sweep is slow under -short")
	}
	calib := filepath.Join(t.TempDir(), perfmodel.SnapshotName)

	res, err := AutoSweep(2, calib)
	if err != nil {
		t.Fatalf("AutoSweep: %v", err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d sweep points, want 4", len(res.Points))
	}
	if res.Resumed {
		t.Fatal("first sweep claims to have resumed a snapshot")
	}
	for _, p := range res.Points {
		if !p.OK {
			t.Errorf("%s failed: %s", p.Bench, p.Verify)
		}
		if p.Obs1 <= 0 || p.Obs2 <= 0 || p.Pred1 <= 0 || p.Pred2 <= 0 {
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

	// The snapshot must be loadable and already warmed: a fresh Online
	// seeded from it has samples for every class the sweep exercised.
	warm, err := perfmodel.LoadOnline(calib, perfmodel.CalibratePlanning(), perfmodel.DefaultDecay)
	if err != nil {
		t.Fatalf("reload snapshot: %v", err)
	}
	for _, c := range []perfmodel.CostClass{
		perfmodel.CostSGEMM, perfmodel.CostMRIQ, perfmodel.CostTPACF, perfmodel.CostCUTCP,
	} {
		if warm.Samples(c) == 0 {
			t.Errorf("snapshot has no samples for class %v", c)
		}
	}

	// A second sweep resumes from the snapshot.
	res2, err := AutoSweep(2, calib)
	if err != nil {
		t.Fatalf("second AutoSweep: %v", err)
	}
	if !res2.Resumed {
		t.Fatal("second sweep ignored the persisted snapshot")
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

// AutoGate enforces all three acceptance clauses.
func TestAutoGateClauses(t *testing.T) {
	good := AutoPoint{Bench: "b", OK: true, Ratio: 1.05, Err1: 0.5, Err2: 0.2,
		Obs2: time.Millisecond, Best: time.Millisecond}
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
	diverged := good
	diverged.Err1, diverged.Err2 = 0.2, 0.5
	if AutoGate(&AutoSweepResult{Points: []AutoPoint{diverged}}, 1.10) == nil {
		t.Fatal("diverging recalibration passed the gate")
	}
	converged := good
	converged.Err1, converged.Err2 = 0.08, 0.09 // worse but already within 10%
	if err := AutoGate(&AutoSweepResult{Points: []AutoPoint{converged}}, 1.10); err != nil {
		t.Fatalf("within-10%% point rejected: %v", err)
	}
}
