package perfmodel

// Bench identifies one of the paper's four evaluation benchmarks.
type Bench int

const (
	// BenchMRIQ is paper Fig. 4.
	BenchMRIQ Bench = iota
	// BenchSGEMM is paper Fig. 5.
	BenchSGEMM
	// BenchTPACF is paper Fig. 7.
	BenchTPACF
	// BenchCUTCP is paper Fig. 8.
	BenchCUTCP
)

func (b Bench) String() string {
	switch b {
	case BenchMRIQ:
		return "mri-q"
	case BenchSGEMM:
		return "sgemm"
	case BenchTPACF:
		return "tpacf"
	case BenchCUTCP:
		return "cutcp"
	}
	return "?"
}

// Figure reports the paper figure number a benchmark's scaling curve
// appears in.
func (b Bench) Figure() int {
	switch b {
	case BenchMRIQ:
		return 4
	case BenchSGEMM:
		return 5
	case BenchTPACF:
		return 7
	case BenchCUTCP:
		return 8
	}
	return 0
}

// Benches lists all four benchmarks in paper order.
var Benches = []Bench{BenchMRIQ, BenchSGEMM, BenchTPACF, BenchCUTCP}

// Impls lists the three compared implementations.
var Impls = []Impl{RefC, Triolet, Eden}

// Model bundles a calibration with the machine constants and the paper-
// scale problem parameters.
type Model struct {
	Cal   Calibration
	Mach  Machine
	MRIQ  MRIQParams
	SGEMM SGEMMParams
	TPACF TPACFParams
	CUTCP CUTCPParams
}

// NewModel calibrates on the current machine and applies the default
// (paper-scale) parameters.
func NewModel() *Model { return NewModelWith(Calibrate()) }

// NewModelWith applies the default (paper-scale) parameters to a given
// calibration.
func NewModelWith(cal Calibration) *Model {
	return &Model{
		Cal:   cal,
		Mach:  DefaultMachine(),
		MRIQ:  DefaultMRIQ(),
		SGEMM: DefaultSGEMM(),
		TPACF: DefaultTPACF(),
		CUTCP: DefaultCUTCP(),
	}
}

// SeqTime is the modeled single-core execution time of one implementation
// of a benchmark (the paper's Fig. 3 bars).
func (mo *Model) SeqTime(b Bench, impl Impl) float64 {
	switch b {
	case BenchMRIQ:
		return mo.Cal.MRIQSeqTime(mo.MRIQ, impl)
	case BenchSGEMM:
		return mo.Cal.SGEMMSeqTime(mo.SGEMM, impl)
	case BenchTPACF:
		return mo.Cal.TPACFSeqTime(mo.TPACF, impl)
	case BenchCUTCP:
		return mo.Cal.CUTCPSeqTime(mo.CUTCP, impl)
	}
	return 0
}

// At models one (benchmark, implementation, nodes, cores-per-node) point.
func (mo *Model) At(b Bench, impl Impl, nodes, cores int) Breakdown {
	switch b {
	case BenchMRIQ:
		return mo.Cal.MRIQ(mo.Mach, mo.MRIQ, impl, nodes, cores)
	case BenchSGEMM:
		return mo.Cal.SGEMM(mo.Mach, mo.SGEMM, impl, nodes, cores)
	case BenchTPACF:
		return mo.Cal.TPACF(mo.Mach, mo.TPACF, impl, nodes, cores)
	case BenchCUTCP:
		return mo.Cal.CUTCP(mo.Mach, mo.CUTCP, impl, nodes, cores)
	}
	return Breakdown{}
}

// Series produces one scaling curve: speedup over sequential C at each of
// the paper's core counts (the y-axis of Figs. 4, 5, 7, 8).
func (mo *Model) Series(b Bench, impl Impl) []Point {
	seqC := mo.SeqTime(b, RefC)
	out := make([]Point, 0, len(CoreCounts))
	for _, cores := range CoreCounts {
		nodes, perNode := NodesFor(cores)
		bd := mo.At(b, impl, nodes, perNode)
		out = append(out, Point{Cores: cores, Speedup: bd.Speedup(seqC), Failed: bd.Failed})
	}
	return out
}

// SpeedupAt128 reports the modeled full-cluster speedup, used by the
// headline-claims summary (9.6–99× over sequential C; 23–100 % of
// C+MPI+OpenMP).
func (mo *Model) SpeedupAt128(b Bench, impl Impl) float64 {
	seqC := mo.SeqTime(b, RefC)
	nodes, perNode := NodesFor(128)
	return mo.At(b, impl, nodes, perNode).Speedup(seqC)
}
