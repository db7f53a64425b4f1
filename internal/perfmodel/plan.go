package perfmodel

import (
	"fmt"

	"triolet/internal/sched"
)

// This file closes the model→runtime loop (ROADMAP item 5): instead of the
// programmer hand-picking a node count per benchmark, a Planner consults the
// calibrated unit costs to choose between the two placements the farm
// executes — every task on one node, or a farm over n nodes whose worker
// ranks each run one task at a time — and the task count and grain that go
// with it. A plan is a pure function of the workload, the calibration and the
// machine; it carries its predicted Breakdown so the caller can compare it
// with the observed run.

// CostClass names which calibrated unit cost prices a workload's kernel.
// The four Parboil classes use the Triolet-implementation measurements
// from Calibrate; CostGeneric uses the caller-supplied Workload.UnitCost.
type CostClass int

const (
	CostGeneric CostClass = iota
	CostMRIQ
	CostSGEMM
	CostTPACF
	CostCUTCP
)

func (c CostClass) String() string {
	switch c {
	case CostGeneric:
		return "generic"
	case CostMRIQ:
		return "mriq"
	case CostSGEMM:
		return "sgemm"
	case CostTPACF:
		return "tpacf"
	case CostCUTCP:
		return "cutcp"
	}
	return fmt.Sprintf("CostClass(%d)", int(c))
}

// unitCost reads the class's calibrated seconds-per-unit.
func (c CostClass) unitCost(cal *Calibration, generic float64) float64 {
	switch c {
	case CostMRIQ:
		return cal.MRIQUnit[Triolet]
	case CostSGEMM:
		return cal.SGEMMMac[Triolet]
	case CostTPACF:
		return cal.TPACFPair[Triolet]
	case CostCUTCP:
		return cal.CUTCPCell[Triolet]
	}
	return generic
}

// ReduceShape describes what travels back from workers to the master.
type ReduceShape int

const (
	// ReduceGather concatenates per-element results at the master
	// (BytesPerResult bytes per element cross the fabric).
	ReduceGather ReduceShape = iota
	// ReduceScalar returns one small combined block per worker
	// (ReduceBytes each) — sums, counters, small histograms.
	ReduceScalar
	// ReduceGrid merges a full-size array tree-wise: ReduceBytes per hop
	// plus an AddInto pass per hop (cutcp's grid, tpacf's bins at scale).
	ReduceGrid
)

func (r ReduceShape) String() string {
	switch r {
	case ReduceGather:
		return "gather"
	case ReduceScalar:
		return "scalar"
	case ReduceGrid:
		return "grid"
	}
	return fmt.Sprintf("ReduceShape(%d)", int(r))
}

// Workload describes one skeleton invocation for planning. Elements are the
// outer decomposition axis; a task is a contiguous element range.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Elems is the outer element count.
	Elems int
	// BytesPerElem is the input payload shipped per element when the
	// workload is distributed (per-task constant overhead excluded).
	BytesPerElem int
	// BytesPerResult is the result payload returned per element under
	// ReduceGather.
	BytesPerResult int
	// UnitsPerElem scales Elems into kernel work units (e.g. K MACs per
	// output element for sgemm).
	UnitsPerElem float64
	// Class picks the calibrated unit cost; UnitCost is used only for
	// CostGeneric.
	Class    CostClass
	UnitCost float64
	// Reduce and ReduceBytes describe the result shape (ReduceBytes is
	// the combined block size for ReduceScalar/ReduceGrid).
	Reduce      ReduceShape
	ReduceBytes int
	// Pointerless marks element data the wire moves as one block copy
	// (serial.Raw), priced at allocation cost without the per-byte encode.
	Pointerless bool
}

// units is the workload's total kernel work in calibration units.
func (w Workload) units() float64 { return float64(w.Elems) * w.UnitsPerElem }

// ExecMode is the planner's placement decision.
type ExecMode int

const (
	// ExecSeq runs every task on one node, one at a time.
	ExecSeq ExecMode = iota
	// ExecFarm distributes across Plan.Nodes virtual nodes: the master
	// dispatches, each of the Nodes−1 worker ranks runs one task at a time.
	ExecFarm
)

func (m ExecMode) String() string {
	switch m {
	case ExecSeq:
		return "seq"
	case ExecFarm:
		return "farm"
	}
	return fmt.Sprintf("ExecMode(%d)", int(m))
}

// Plan is the planner's decision for one workload, with its prediction
// attached so callers can record predicted-vs-observed.
type Plan struct {
	Workload Workload
	Mode     ExecMode
	// Nodes is the virtual cluster size (1 unless Mode == ExecFarm).
	Nodes int
	// Grain is the elements per task, snapped to sched.BlockAlign (never
	// zero).
	Grain int
	// Tasks is the task count: 1 for ExecSeq, over-decomposed for ExecFarm.
	Tasks int
	// Predicted is the modeled Breakdown for the chosen configuration.
	Predicted Breakdown
	// PredictedBytes is the modeled cross-fabric byte volume.
	PredictedBytes int64
}

// String renders the decision compactly: "farm@4 grain=512 0.0123s".
func (p Plan) String() string {
	s := p.Mode.String()
	if p.Mode == ExecFarm {
		s = fmt.Sprintf("farm@%d", p.Nodes)
	}
	return fmt.Sprintf("%s grain=%d %.3gs", s, p.Grain, p.Predicted.Total())
}

// VirtualMachine models the in-process fabric the reproduction actually
// runs on: channel hops and memory copies instead of 10 GbE. Bandwidth is
// effectively a memcpy and latency a scheduler wakeup. The absolute values
// matter less than their ratio to compute cost, which is what decides a
// plan: a factor common to every candidate's total cannot move the argmin.
func VirtualMachine() Machine {
	return Machine{
		NetBandwidth:   4e9,   // in-process copy through the fabric
		NetLatency:     15e-6, // goroutine wakeup + frame bookkeeping
		LocalBandwidth: 6e9,
		LocalLatency:   5e-6,
	}
}

// tasksPerWorker over-decomposes farm work so reassignment can balance.
const tasksPerWorker = 4

// maxPlanNodes bounds the search: the paper's testbed is 8 nodes.
const maxPlanNodes = 8

// farmSpawnCost approximates the fixed cost of opening a farm (worker
// wakeup, first dispatch), so tiny workloads plan sequential.
const farmSpawnCost = 20e-6

// Planner chooses execution plans from a static calibration. It holds no
// state a plan changes; one Planner may serve many workloads.
type Planner struct {
	cal  *Calibration // NewPlanner's own copy, which nothing writes
	mach Machine
	// Cores is the per-node core count of the cluster a plan runs on.
	// Pricing does not read it: a farm worker runs one task at a time.
	Cores int
	// PhysCores, when set, caps the modeled speedup at the physical
	// parallelism actually available to the in-process virtual cluster.
	// Zero trusts the paper-semantics model where every virtual node owns
	// real cores. An oversubscribed box time-slices virtual ranks, so
	// workers beyond PhysCores add overhead, never speedup.
	PhysCores int
}

// NewPlanner builds a planner over a static calibration.
func NewPlanner(cal Calibration, mach Machine, cores int) *Planner {
	if cores <= 0 {
		cores = 1
	}
	return &Planner{cal: &cal, mach: mach, Cores: cores}
}

// SnapGrain snaps a proposed grain to the sched.BlockAlign lattice:
// grains at or above one block round down to a block multiple (so leaf
// ranges drive full-width block kernels), smaller proposals clamp up to a
// full block. The result is always ≥ BlockAlign.
func SnapGrain(grain int) int {
	if grain < sched.BlockAlign {
		return sched.BlockAlign
	}
	return grain &^ (sched.BlockAlign - 1)
}

// Plan evaluates seq and farm@2..maxPlanNodes under the calibrated unit
// costs and returns the minimum-predicted configuration.
func (pl *Planner) Plan(w Workload) Plan {
	cal := pl.cal
	work := w.units() * w.Class.unitCost(cal, w.UnitCost)
	serCost := cal.SerPerByte + cal.AllocPerByte
	if w.Pointerless {
		serCost = cal.AllocPerByte
	}

	best := Plan{
		Workload:  w,
		Mode:      ExecSeq,
		Nodes:     1,
		Grain:     SnapGrain(w.Elems),
		Tasks:     1,
		Predicted: Breakdown{Compute: work},
	}
	for n := 2; n <= maxPlanNodes; n++ {
		if p := pl.farmPlan(w, n, work, serCost); p.Predicted.Total() < best.Predicted.Total() {
			best = p
		}
	}
	return best
}

// farmPlan models distributing w across n nodes: n−1 worker ranks, each
// running one task at a time.
func (pl *Planner) farmPlan(w Workload, n int, work, serCost float64) Plan {
	workers := n - 1 // rank 0 masters; ranks 1..n-1 compute
	tasks := min(workers*tasksPerWorker, max(w.Elems, 1))
	inBytes := float64(w.Elems) * float64(w.BytesPerElem)
	var outBytes, mergeCost float64
	msgs := float64(2 * tasks) // dispatch + result per task
	switch w.Reduce {
	case ReduceGather:
		outBytes = float64(w.Elems) * float64(w.BytesPerResult)
	case ReduceScalar:
		outBytes = float64(workers) * float64(w.ReduceBytes)
	case ReduceGrid:
		// The farm executor merges flat: every task ships its full-size
		// partial grid to the master, which AddIntos them in task order (no
		// tree combining on the in-process fabric). Model that, not the
		// binomial tree the paper's 10 GbE reduction would use — pricing
		// grid-shaped results per task is what keeps the planner from
		// over-distributing small grid workloads.
		outBytes = float64(tasks) * float64(w.ReduceBytes)
		mergeCost = outBytes / 4 * pl.cal.AddF32
	}

	b := Breakdown{
		Compute: work/pl.speedup(workers) + farmSpawnCost,
		Comm:    pl.mach.netTime(inBytes+outBytes, msgs),
		Serial:  (inBytes+outBytes)*serCost + mergeCost,
	}
	return Plan{
		Workload:       w,
		Mode:           ExecFarm,
		Nodes:          n,
		Grain:          SnapGrain(w.Elems / tasks),
		Tasks:          tasks,
		Predicted:      b,
		PredictedBytes: int64(inBytes + outBytes),
	}
}

// speedup is the modeled parallel speedup of running on n workers,
// capped at PhysCores when the planner knows the box's real parallelism.
func (pl *Planner) speedup(n int) float64 {
	if pl.PhysCores > 0 && n > pl.PhysCores {
		n = pl.PhysCores
	}
	return float64(n)
}
