package perfmodel

import (
	"fmt"

	"triolet/internal/sched"
)

// This file closes the model→runtime loop (ROADMAP item 5): instead of the
// programmer hand-picking a node count and grain per benchmark, a Planner
// consults the calibrated unit costs to choose sequential vs. node-local
// pool vs. distributed farm execution, the virtual node count, the grain
// (snapped to sched.BlockAlign so leaf ranges drive full-width block
// kernels), and the serialization path. The resulting Plan carries its
// predicted Breakdown so the runtime can record predicted-vs-observed
// trace instants and feed an Online recalibrator.

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
	numCostClasses
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

// baseUnitCost reads the class's statically calibrated seconds-per-unit.
func (c CostClass) baseUnitCost(cal Calibration, generic float64) float64 {
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
	// Name keys the online recalibrator's per-workload bias correction.
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
	// Pointerless marks element data eligible for the serial.Raw
	// zero-copy path.
	Pointerless bool
}

// units is the workload's total kernel work in calibration units.
func (w Workload) units() float64 { return float64(w.Elems) * w.UnitsPerElem }

// ExecMode is the planner's placement decision.
type ExecMode int

const (
	// ExecSeq runs on the master goroutine with no parallel region.
	ExecSeq ExecMode = iota
	// ExecPool runs node-local on the master's work-stealing pool.
	ExecPool
	// ExecFarm distributes across Plan.Nodes virtual nodes.
	ExecFarm
)

func (m ExecMode) String() string {
	switch m {
	case ExecSeq:
		return "seq"
	case ExecPool:
		return "pool"
	case ExecFarm:
		return "farm"
	}
	return fmt.Sprintf("ExecMode(%d)", int(m))
}

// SerialPath is the planner's wire-encoding decision.
type SerialPath int

const (
	// SerCodec is the generic field-by-field codec.
	SerCodec SerialPath = iota
	// SerRaw aliases pointer-free backing arrays (serial.Raw), paying
	// allocation but not the per-byte encode/decode copy.
	SerRaw
)

func (s SerialPath) String() string {
	if s == SerRaw {
		return "raw"
	}
	return "codec"
}

// Plan is the planner's decision for one workload, with its prediction
// attached so callers can record predicted-vs-observed.
type Plan struct {
	Workload Workload
	Mode     ExecMode
	// Nodes is the virtual cluster size (1 unless Mode == ExecFarm).
	Nodes int
	// Grain is the per-range element grain for parallel loops, snapped to
	// sched.BlockAlign (never zero).
	Grain int
	// Tasks is the farm task count (0 unless Mode == ExecFarm).
	Tasks int
	// Serial is the chosen wire encoding (meaningful for ExecFarm).
	Serial SerialPath
	// Predicted is the modeled Breakdown for the chosen configuration,
	// bias-corrected when the recalibrator has seen this workload before.
	Predicted Breakdown
	// PredictedBytes is the modeled cross-fabric byte volume.
	PredictedBytes int64
}

// String renders the decision compactly: "farm@4 grain=512 raw 12.3ms".
func (p Plan) String() string {
	s := p.Mode.String()
	if p.Mode == ExecFarm {
		s = fmt.Sprintf("farm@%d", p.Nodes)
	}
	return fmt.Sprintf("%s grain=%d %s %.3gs", s, p.Grain, p.Serial, p.Predicted.Total())
}

// VirtualMachine models the in-process fabric the reproduction actually
// runs on: channel hops and memory copies instead of 10 GbE. Bandwidth is
// effectively a memcpy and latency a scheduler wakeup. The absolute values
// matter less than their ratio to compute cost — and the Online
// recalibrator's per-workload bias absorbs residual systematic error.
func VirtualMachine() Machine {
	return Machine{
		NetBandwidth:   4e9,   // in-process copy through the fabric
		NetLatency:     15e-6, // goroutine wakeup + frame bookkeeping
		LocalBandwidth: 6e9,
		LocalLatency:   5e-6,
	}
}

// tasksPerWorker over-decomposes farm work so stealing/reassignment can
// balance (mirrors sched.ParallelForRect's factor).
const tasksPerWorker = 4

// maxPlanNodes bounds the search: the paper's testbed is 8 nodes.
const maxPlanNodes = 8

// poolSpawnCost approximates the fixed cost of opening one parallel
// region (worker wakeup + deque seeding), charged to ExecPool/ExecFarm so
// tiny workloads plan sequential.
const poolSpawnCost = 20e-6

// Planner chooses execution plans from an Online cost source. It is
// stateless beyond the recalibrator; one Planner may serve many workloads.
type Planner struct {
	online *Online
	mach   Machine
	// Cores is the per-node pool width the plan will run with.
	Cores int
	// PhysCores, when set, caps the modeled parallel speedup at the
	// physical parallelism actually available to the in-process virtual
	// cluster. Zero trusts the paper-semantics model where every virtual
	// node owns real cores. An oversubscribed box time-slices virtual
	// ranks, so distributing there buys overhead, never speedup — a
	// planner that knows the box picks the local plan the measurements
	// favor.
	PhysCores int
}

// NewPlanner builds a planner over a static calibration (no history).
func NewPlanner(cal Calibration, mach Machine, cores int) *Planner {
	return NewPlannerOnline(NewOnline(cal, DefaultDecay), mach, cores)
}

// NewPlannerOnline builds a planner over an existing recalibrator, so a
// snapshot loaded from disk informs the first plan of a new process.
func NewPlannerOnline(o *Online, mach Machine, cores int) *Planner {
	if cores <= 0 {
		cores = 1
	}
	return &Planner{online: o, mach: mach, Cores: cores}
}

// Online exposes the planner's recalibrator for Observe/Commit feedback.
func (pl *Planner) Online() *Online { return pl.online }

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

// grainFor sizes the grain so each of workers' deques sees several
// steal-able ranges, snapped to the block lattice and clamped to n.
func grainFor(n, workers int) int {
	if workers <= 0 {
		workers = 1
	}
	g := SnapGrain(n / (workers * tasksPerWorker))
	if g > n && n >= sched.BlockAlign {
		g = SnapGrain(n)
	}
	return g
}

// Plan evaluates seq, pool, and farm@2..maxPlanNodes under the current
// (possibly recalibrated) unit costs and returns the minimum-predicted
// configuration.
func (pl *Planner) Plan(w Workload) Plan {
	unit := pl.online.UnitCost(w.Class, w.Class.baseUnitCost(pl.online.Base(), w.UnitCost))
	bias := pl.online.Bias(w.Name)
	work := w.units() * unit
	cores := pl.Cores
	cal := pl.online.Base()

	serial := SerCodec
	serCost := cal.SerPerByte + cal.AllocPerByte
	if w.Pointerless {
		// serial.Raw skips the per-byte encode/decode copy; the buffer
		// handoff still pays allocation-order cost on the receive side.
		serial = SerRaw
		serCost = cal.AllocPerByte
	}

	best := Plan{
		Workload:  w,
		Mode:      ExecSeq,
		Nodes:     1,
		Grain:     SnapGrain(w.Elems),
		Serial:    serial,
		Predicted: scale(Breakdown{Compute: work}, bias),
	}

	if cores > 1 {
		p := Plan{
			Workload: w,
			Mode:     ExecPool,
			Nodes:    1,
			Grain:    grainFor(w.Elems, cores),
			Serial:   serial,
			Predicted: scale(Breakdown{
				Compute: work / pl.speedup(cores),
				Serial:  poolSpawnCost,
			}, bias),
		}
		if p.Predicted.Total() < best.Predicted.Total() {
			best = p
		}
	}

	for n := 2; n <= maxPlanNodes; n++ {
		p := pl.farmPlan(w, n, cores, work, serial, serCost, bias)
		if p.Predicted.Total() < best.Predicted.Total() {
			best = p
		}
	}
	return best
}

// farmPlan models distributing w across n nodes × cores.
func (pl *Planner) farmPlan(w Workload, n, cores int, work float64, serial SerialPath, serCost, bias float64) Plan {
	cal := pl.online.Base()
	workers := n - 1 // rank 0 masters; ranks 1..n-1 compute
	if workers < 1 {
		workers = 1
	}
	tasks := workers * tasksPerWorker
	if tasks > w.Elems {
		tasks = w.Elems
	}
	if tasks < 1 {
		tasks = 1
	}

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
		mergeCost = outBytes / 4 * cal.AddF32
	}

	b := Breakdown{
		Compute: work/pl.speedup(workers*cores) + poolSpawnCost,
		Comm:    pl.mach.netTime(inBytes+outBytes, msgs),
		Serial:  (inBytes+outBytes)*serCost + mergeCost,
	}
	perWorker := w.Elems / workers
	if perWorker < 1 {
		perWorker = 1
	}
	return Plan{
		Workload:       w,
		Mode:           ExecFarm,
		Nodes:          n,
		Grain:          grainFor(perWorker, cores),
		Tasks:          tasks,
		Serial:         serial,
		Predicted:      scale(b, bias),
		PredictedBytes: int64(inBytes + outBytes),
	}
}

// speedup is the modeled parallel speedup of running on n workers,
// capped at PhysCores when the planner knows the box's real parallelism.
func (pl *Planner) speedup(n int) float64 {
	if pl.PhysCores > 0 && n > pl.PhysCores {
		n = pl.PhysCores
	}
	if n < 1 {
		n = 1
	}
	return float64(n)
}

// scale applies the recalibrator's observed/predicted bias multiplier to
// every component, preserving the breakdown's proportions.
func scale(b Breakdown, bias float64) Breakdown {
	if bias <= 0 {
		bias = 1
	}
	b.Compute *= bias
	b.Comm *= bias
	b.Serial *= bias
	return b
}
