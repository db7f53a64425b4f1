package perfmodel

import (
	"testing"

	"triolet/internal/sched"
)

// planTestCal is a synthetic calibration with round numbers so the tests
// reason about the planner's arithmetic, not a machine's noise.
func planTestCal() Calibration {
	c := Calibration{
		SGEMMTransposeElem: 1e-9,
		SerPerByte:         1e-9,
		AllocPerByte:       2e-10,
		AddF32:             1e-9,
	}
	for _, a := range []*[3]float64{&c.MRIQUnit, &c.SGEMMMac, &c.TPACFPair, &c.CUTCPCell} {
		a[RefC], a[Triolet], a[Eden] = 4e-9, 5e-9, 6e-9
	}
	return c
}

func planTestPlanner(cores int) *Planner {
	return NewPlanner(planTestCal(), VirtualMachine(), cores)
}

func TestSnapGrain(t *testing.T) {
	ba := sched.BlockAlign
	cases := []struct{ in, want int }{
		{-5, ba}, {0, ba}, {1, ba}, {ba - 1, ba}, {ba, ba},
		{ba + 1, ba}, {2*ba - 1, ba}, {2 * ba, 2 * ba}, {10*ba + 7, 10 * ba},
	}
	for _, c := range cases {
		if got := SnapGrain(c.in); got != c.want {
			t.Errorf("SnapGrain(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPlanTinyWorkloadSequential(t *testing.T) {
	pl := planTestPlanner(4)
	p := pl.Plan(Workload{Name: "tiny", Elems: 32, UnitsPerElem: 1, Class: CostGeneric, UnitCost: 1e-9})
	if p.Mode != ExecSeq {
		t.Fatalf("tiny workload planned %v, want seq", p.Mode)
	}
	if p.Nodes != 1 {
		t.Fatalf("seq plan has Nodes=%d, want 1", p.Nodes)
	}
}

func TestPlanComputeHeavyDistributes(t *testing.T) {
	pl := planTestPlanner(2)
	// 1e6 elements × 1e3 units × 5ns = 5s of compute, 4 bytes in/out per
	// element: compute dwarfs the wire, so the farm must win at max width.
	p := pl.Plan(Workload{
		Name: "heavy", Elems: 1 << 20, BytesPerElem: 4, BytesPerResult: 4,
		UnitsPerElem: 1000, Class: CostMRIQ, Reduce: ReduceGather,
	})
	if p.Mode != ExecFarm {
		t.Fatalf("compute-heavy workload planned %v, want farm", p.Mode)
	}
	if p.Nodes != maxPlanNodes {
		t.Errorf("compute-heavy farm chose %d nodes, want %d", p.Nodes, maxPlanNodes)
	}
	if p.Tasks <= 0 {
		t.Errorf("farm plan has %d tasks", p.Tasks)
	}
	if p.PredictedBytes <= 0 {
		t.Errorf("farm plan predicts %d bytes", p.PredictedBytes)
	}
}

func TestPlanCommHeavyStaysLocal(t *testing.T) {
	pl := planTestPlanner(4)
	// 1 unit of work per element against 1MB of payload per element:
	// shipping costs orders of magnitude more than computing locally.
	p := pl.Plan(Workload{
		Name: "wire-bound", Elems: 4096, BytesPerElem: 1 << 20,
		UnitsPerElem: 1, Class: CostGeneric, UnitCost: 5e-9, Reduce: ReduceScalar, ReduceBytes: 8,
	})
	if p.Mode == ExecFarm {
		t.Fatalf("comm-heavy workload planned farm@%d; distribution should lose to local", p.Nodes)
	}
}

func TestPlanGrainAlwaysAligned(t *testing.T) {
	pl := planTestPlanner(4)
	workloads := []Workload{
		{Name: "a", Elems: 100, UnitsPerElem: 1, Class: CostGeneric, UnitCost: 1e-9},
		{Name: "b", Elems: 1 << 18, UnitsPerElem: 500, Class: CostSGEMM},
		{Name: "c", Elems: 7777, UnitsPerElem: 3, Class: CostTPACF, BytesPerElem: 16},
		{Name: "d", Elems: 1 << 22, UnitsPerElem: 2000, Class: CostCUTCP, Reduce: ReduceGrid, ReduceBytes: 1 << 16},
	}
	for _, w := range workloads {
		p := pl.Plan(w)
		if p.Grain < sched.BlockAlign {
			t.Errorf("%s: grain %d below BlockAlign %d", w.Name, p.Grain, sched.BlockAlign)
		}
		if p.Grain%sched.BlockAlign != 0 {
			t.Errorf("%s: grain %d not a multiple of BlockAlign", w.Name, p.Grain)
		}
	}
}

// A farm worker runs one task at a time, so a farm is priced by its worker
// ranks alone: on a 2-core box two workers already take every core, and
// farm@3 beats both the sequential plan and wider farms that pay more
// messages for no more speedup, however many cores each node claims.
func TestPlanPricesFarmByRanks(t *testing.T) {
	pl := planTestPlanner(2)
	pl.PhysCores = 2
	p := pl.Plan(Workload{
		Name: "heavy", Elems: 1 << 16, BytesPerElem: 12, BytesPerResult: 8,
		UnitsPerElem: 1000, Class: CostMRIQ, Reduce: ReduceGather, Pointerless: true,
	})
	if p.Mode != ExecFarm || p.Nodes != 3 {
		t.Fatalf("compute-heavy workload on 2 cores planned %s, want farm@3", p)
	}
	if p.Tasks != 2*tasksPerWorker {
		t.Errorf("farm@3 plans %d tasks, want %d", p.Tasks, 2*tasksPerWorker)
	}
}

func TestPlanMoreWorkPrefersMoreNodes(t *testing.T) {
	pl := planTestPlanner(1)
	base := Workload{Name: "scale", BytesPerElem: 8, BytesPerResult: 8,
		UnitsPerElem: 200, Class: CostGeneric, UnitCost: 5e-9, Reduce: ReduceGather}
	prev := 0
	for _, elems := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		w := base
		w.Elems = elems
		p := pl.Plan(w)
		n := p.Nodes
		if p.Mode != ExecFarm {
			n = 1
		}
		if n < prev {
			t.Fatalf("node choice not monotone in work: %d elems chose %d nodes after %d", elems, n, prev)
		}
		prev = n
	}
	if prev < 2 {
		t.Fatalf("largest workload never distributed (chose %d nodes)", prev)
	}
}

// Each Parboil class prices its kernel by the calibration's Triolet column,
// and CostGeneric by the workload's own UnitCost: the planner's unit costs
// come from its Calibration and nowhere else.
func TestUnitCostReadsTrioletColumn(t *testing.T) {
	cal := planTestCal()
	cal.MRIQUnit[Triolet], cal.SGEMMMac[Triolet] = 1e-9, 2e-9
	cal.TPACFPair[Triolet], cal.CUTCPCell[Triolet] = 3e-9, 4e-9
	var got [5]float64
	for c := CostGeneric; c <= CostCUTCP; c++ {
		got[c] = c.unitCost(&cal, 7e-9)
	}
	if want := [5]float64{7e-9, 1e-9, 2e-9, 3e-9, 4e-9}; got != want {
		t.Errorf("unit costs by class = %v, want %v", got, want)
	}
}
