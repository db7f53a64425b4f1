package perfmodel

import (
	"sync"
	"testing"
)

// Calibration runs real kernels, so build it once for the whole package.
var (
	modelOnce sync.Once
	model     *Model
)

func getModel() *Model {
	modelOnce.Do(func() { model = NewModel() })
	return model
}

// skipUnderRace skips calibration-shape assertions when the race detector
// is active: its instrumentation slows the measured kernels by large,
// non-uniform factors, so cost *ratios* (which the shape tests assert) are
// not meaningful. The functional model tests and the communication-volume
// validations still run under -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("calibration ratios are not meaningful under -race instrumentation")
	}
}

func TestCalibrationSanity(t *testing.T) {
	skipUnderRace(t)
	c := getModel().Cal
	positives := map[string]float64{
		"MRIQUnit[RefC]":     c.MRIQUnit[RefC],
		"MRIQUnit[Triolet]":  c.MRIQUnit[Triolet],
		"MRIQUnit[Eden]":     c.MRIQUnit[Eden],
		"SGEMMMac[RefC]":     c.SGEMMMac[RefC],
		"SGEMMTransposeElem": c.SGEMMTransposeElem,
		"TPACFPair[RefC]":    c.TPACFPair[RefC],
		"CUTCPCell[RefC]":    c.CUTCPCell[RefC],
		"SerPerByte":         c.SerPerByte,
		"AllocPerByte":       c.AllocPerByte,
		"AddF32":             c.AddF32,
	}
	for name, v := range positives {
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// The Eden mri-q kernel (separate Sin/Cos) must be measurably slower
	// than the fused-Sincos C kernel — the mechanism behind the paper's
	// Fig. 3 mri-q gap.
	if c.MRIQUnit[Eden] <= c.MRIQUnit[RefC] {
		t.Errorf("Eden mri-q unit %v not slower than C %v", c.MRIQUnit[Eden], c.MRIQUnit[RefC])
	}
	// The Triolet cutcp pipeline pays real abstraction cost over the raw
	// loop nest (paper Fig. 3 shows the same direction), but must stay
	// within an order of magnitude or the fusion machinery is broken.
	ratio := c.CUTCPCell[Triolet] / c.CUTCPCell[RefC]
	if ratio <= 1 || ratio > 10 {
		t.Errorf("Triolet/C cutcp unit ratio = %v, want (1, 10]", ratio)
	}
	// Serialization must be cheaper per byte than 10ns (block copies).
	if c.SerPerByte > 10e-9 {
		t.Errorf("SerPerByte = %v, block path suspiciously slow", c.SerPerByte)
	}
}

func TestRefCSpeedupIsOneAtOneCore(t *testing.T) {
	mo := getModel()
	for _, b := range Benches {
		seq := mo.SeqTime(b, RefC)
		got := mo.At(b, RefC, 1, 1).Speedup(seq)
		// cutcp's single-core model includes the (tiny) private-grid merge
		// term, so allow a fraction of a percent.
		if got < 0.99 || got > 1.01 {
			t.Errorf("%s: 1-core RefC speedup = %v", b, got)
		}
	}
}

func TestMRIQShape(t *testing.T) {
	skipUnderRace(t)
	mo := getModel()
	ref := mo.Series(BenchMRIQ, RefC)
	tri := mo.Series(BenchMRIQ, Triolet)
	ed := mo.Series(BenchMRIQ, Eden)
	// All three scale monotonically.
	for _, s := range [][]Point{ref, tri, ed} {
		for i := 1; i < len(s); i++ {
			if s[i].Speedup <= s[i-1].Speedup {
				t.Fatalf("mri-q series not monotone at %d cores", s[i].Cores)
			}
		}
	}
	// Paper §4.2: Triolet "nearly on par" with C+MPI+OpenMP.
	last := len(ref) - 1
	r := tri[last].Speedup / ref[last].Speedup
	if r < 0.8 || r > 1.2 {
		t.Errorf("mri-q Triolet/C at 128 = %v, want ~1", r)
	}
	// Paper §4.2: Eden loses performance across the entire range.
	for i := range ed {
		if ed[i].Speedup >= tri[i].Speedup {
			t.Errorf("mri-q Eden (%v) not below Triolet (%v) at %d cores",
				ed[i].Speedup, tri[i].Speedup, ed[i].Cores)
		}
	}
}

func TestSGEMMShape(t *testing.T) {
	skipUnderRace(t)
	mo := getModel()
	ref := mo.Series(BenchSGEMM, RefC)
	tri := mo.Series(BenchSGEMM, Triolet)
	ed := mo.Series(BenchSGEMM, Eden)
	last := len(ref) - 1
	// Paper §4.3: all versions exhibit limited scalability.
	if ref[last].Speedup > 64 {
		t.Errorf("sgemm C at 128 = %v, expected saturation well below linear", ref[last].Speedup)
	}
	// Similar Triolet and C performance, Triolet slightly below (GC).
	r := tri[last].Speedup / ref[last].Speedup
	if r < 0.6 || r > 1.05 {
		t.Errorf("sgemm Triolet/C at 128 = %v", r)
	}
	// Paper §4.3: "The Eden code fails at 2 nodes" but runs on 1 node.
	for _, p := range ed {
		nodes, _ := NodesFor(p.Cores)
		if nodes >= 2 && !p.Failed {
			t.Errorf("sgemm Eden at %d cores (%d nodes) did not fail", p.Cores, nodes)
		}
		if nodes == 1 && p.Failed {
			t.Errorf("sgemm Eden failed on a single node (%d cores)", p.Cores)
		}
	}
}

func TestTPACFShape(t *testing.T) {
	skipUnderRace(t)
	mo := getModel()
	ref := mo.Series(BenchTPACF, RefC)
	tri := mo.Series(BenchTPACF, Triolet)
	ed := mo.Series(BenchTPACF, Eden)
	last := len(ref) - 1
	// Paper §4.4: Triolet and C+MPI+OpenMP scale similarly; Eden has
	// somewhat worse performance and higher communication overhead.
	r := tri[last].Speedup / ref[last].Speedup
	if r < 0.6 || r > 1.2 {
		t.Errorf("tpacf Triolet/C at 128 = %v, want similar scaling", r)
	}
	if ed[last].Speedup >= ref[last].Speedup {
		t.Errorf("tpacf Eden (%v) not below C (%v)", ed[last].Speedup, ref[last].Speedup)
	}
	// 100 random sets bound the distributed parallelism: the curve must
	// flatten between 96 and 128 cores.
	gain := ref[last].Speedup / ref[last-1].Speedup
	if gain > 1.15 {
		t.Errorf("tpacf C gained %vx from 96 to 128 cores despite 100-set limit", gain)
	}
}

func TestCUTCPShape(t *testing.T) {
	skipUnderRace(t)
	mo := getModel()
	ref := mo.Series(BenchCUTCP, RefC)
	tri := mo.Series(BenchCUTCP, Triolet)
	ed := mo.Series(BenchCUTCP, Eden)
	last := len(ref) - 1
	// Paper §4.5: performance saturates quickly; summing the large output
	// arrays dominates.
	if ref[last].Speedup > 80 {
		t.Errorf("cutcp C at 128 = %v, expected strong saturation", ref[last].Speedup)
	}
	// Triolet below C (allocation overhead, §4.5), but still scaling.
	if tri[last].Speedup >= ref[last].Speedup {
		t.Errorf("cutcp Triolet (%v) not below C (%v)", tri[last].Speedup, ref[last].Speedup)
	}
	if tri[last].Speedup < tri[1].Speedup {
		t.Errorf("cutcp Triolet did not scale at all: %v at 128 vs %v at 16",
			tri[last].Speedup, tri[1].Speedup)
	}
	// Eden's full-grid-per-process collection makes more processes WORSE
	// beyond one node.
	if ed[last].Speedup >= ed[1].Speedup {
		t.Errorf("cutcp Eden at 128 (%v) should be below its 16-core point (%v)",
			ed[last].Speedup, ed[1].Speedup)
	}
}

func TestSlabExtensionBeatsReplicatedGrid(t *testing.T) {
	skipUnderRace(t)
	// The slab-decomposed extension exists to remove cutcp's full-grid
	// reduction; at paper scale it must model faster than the replicated
	// implementation on multiple nodes, and must not regress single-node
	// execution by more than its bookkeeping.
	mo := getModel()
	for _, cores := range []int{32, 64, 128} {
		nodes, perNode := NodesFor(cores)
		replicated := mo.Cal.CUTCP(mo.Mach, mo.CUTCP, Triolet, nodes, perNode).Total()
		slab := mo.Cal.CUTCPSlab(mo.Mach, mo.CUTCP, nodes, perNode).Total()
		if slab >= replicated {
			t.Errorf("%d cores: slab %vs not faster than replicated %vs", cores, slab, replicated)
		}
	}
	seqC := mo.SeqTime(BenchCUTCP, RefC)
	sl := mo.Cal.CUTCPSlab(mo.Mach, mo.CUTCP, 8, 16)
	t.Logf("cutcp slab extension at 128 cores: %.1fx vs replicated %.1fx",
		sl.Speedup(seqC), mo.SpeedupAt128(BenchCUTCP, Triolet))
}

func TestHeadlineClaims(t *testing.T) {
	skipUnderRace(t)
	// Paper abstract: Triolet achieves 23–100 % of C+MPI+OpenMP and
	// 9.6–99× over sequential C on 128 cores. The model must land every
	// benchmark in a compatible band (we allow mri-q to slightly exceed
	// parity, as the paper's own Fig. 4 does).
	mo := getModel()
	for _, b := range Benches {
		tri := mo.SpeedupAt128(b, Triolet)
		ref := mo.SpeedupAt128(b, RefC)
		if ref <= 0 {
			t.Fatalf("%s: RefC speedup %v", b, ref)
		}
		frac := tri / ref
		if frac < 0.20 || frac > 1.10 {
			t.Errorf("%s: Triolet at %v%% of C+MPI+OpenMP, outside the paper's band", b, frac*100)
		}
		if tri < 5 || tri > 140 {
			t.Errorf("%s: Triolet 128-core speedup %v implausible", b, tri)
		}
	}
}

func TestFig3SequentialOrdering(t *testing.T) {
	skipUnderRace(t)
	// Fig. 3's qualitative content: Eden's mri-q sequential time exceeds
	// C's; Triolet's cutcp and tpacf sequential times exceed C's; sgemm is
	// close across the board.
	mo := getModel()
	if mo.SeqTime(BenchMRIQ, Eden) <= mo.SeqTime(BenchMRIQ, RefC) {
		t.Error("Eden mri-q sequential not slower than C")
	}
	if mo.SeqTime(BenchCUTCP, Triolet) <= mo.SeqTime(BenchCUTCP, RefC) {
		t.Error("Triolet cutcp sequential not slower than C")
	}
	r := mo.SeqTime(BenchSGEMM, Eden) / mo.SeqTime(BenchSGEMM, RefC)
	if r < 0.8 || r > 1.3 {
		t.Errorf("sgemm Eden/C sequential = %v, want ~1 (same loop nest)", r)
	}
}

// fixtureCal is a Calibrate() result recorded on the development host
// (2-core linux/amd64, go1.24), rounded to two digits.
var fixtureCal = Calibration{
	MRIQUnit:           [3]float64{RefC: 3.0e-8, Triolet: 3.1e-8, Eden: 3.7e-8},
	SGEMMMac:           [3]float64{RefC: 6.3e-10, Triolet: 7.4e-10, Eden: 6.4e-10},
	SGEMMTransposeElem: 1.0e-9,
	TPACFPair:          [3]float64{RefC: 1.9e-8, Triolet: 2.3e-8, Eden: 2.0e-8},
	CUTCPCell:          [3]float64{RefC: 5.1e-9, Triolet: 2.6e-8, Eden: 5.2e-9},
	SerPerByte:         7.0e-10,
	AllocPerByte:       5.0e-11,
	AddF32:             3.8e-10,
}

func TestModelSensitivityToNetwork(t *testing.T) {
	// Sanity of the time equations: a 10× slower network must hurt the
	// communication-bound benchmarks (sgemm, cutcp) at 8 nodes and leave
	// the compute-bound one (mri-q) nearly untouched. The equations are
	// what is under test, not the host, so they run over a fixed
	// calibration: calibrated live under load, cutcp's ratio read 1.34x
	// against the 1.5x floor on unchanged code.
	mo := NewModelWith(fixtureCal)
	slow := mo.Mach
	slow.NetBandwidth /= 10
	slow.NetLatency *= 10
	for _, c := range []struct {
		bench     Bench
		sensitive bool
	}{
		{BenchMRIQ, false},
		{BenchSGEMM, true},
		{BenchCUTCP, true},
	} {
		fast := mo.Cal.MRIQ(mo.Mach, mo.MRIQ, Triolet, 8, 16).Total()
		slowT := mo.Cal.MRIQ(slow, mo.MRIQ, Triolet, 8, 16).Total()
		switch c.bench {
		case BenchSGEMM:
			fast = mo.Cal.SGEMM(mo.Mach, mo.SGEMM, Triolet, 8, 16).Total()
			slowT = mo.Cal.SGEMM(slow, mo.SGEMM, Triolet, 8, 16).Total()
		case BenchCUTCP:
			fast = mo.Cal.CUTCP(mo.Mach, mo.CUTCP, Triolet, 8, 16).Total()
			slowT = mo.Cal.CUTCP(slow, mo.CUTCP, Triolet, 8, 16).Total()
		}
		ratio := slowT / fast
		if c.sensitive && ratio < 1.5 {
			t.Errorf("%s: 10x slower network only changed time by %.2fx", c.bench, ratio)
		}
		if !c.sensitive && ratio > 1.5 {
			t.Errorf("%s: compute-bound benchmark moved %.2fx with network speed", c.bench, ratio)
		}
		if ratio < 1.0 {
			t.Errorf("%s: slower network made the model faster (%.2fx)", c.bench, ratio)
		}
	}
}

func TestNodesFor(t *testing.T) {
	cases := []struct{ cores, nodes, perNode int }{
		{1, 1, 1},
		{8, 1, 8},
		{16, 1, 16},
		{32, 2, 16},
		{128, 8, 16},
	}
	for _, c := range cases {
		n, p := NodesFor(c.cores)
		if n != c.nodes || p != c.perNode {
			t.Errorf("NodesFor(%d) = (%d,%d), want (%d,%d)", c.cores, n, p, c.nodes, c.perNode)
		}
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{Compute: 1, Comm: 2, Serial: 3}
	if b.Total() != 6 {
		t.Fatalf("Total = %v", b.Total())
	}
	if b.Speedup(12) != 2 {
		t.Fatalf("Speedup = %v", b.Speedup(12))
	}
	if (Breakdown{Failed: true}).Speedup(10) != 0 {
		t.Fatal("failed breakdown has nonzero speedup")
	}
	if (Breakdown{}).Speedup(10) != 0 {
		t.Fatal("zero-time breakdown should report 0 speedup")
	}
}

func TestStringsAndFigures(t *testing.T) {
	if RefC.String() != "C+MPI+OpenMP" || Triolet.String() != "Triolet" || Eden.String() != "Eden" {
		t.Fatal("Impl strings wrong")
	}
	wantFig := map[Bench]int{BenchMRIQ: 4, BenchSGEMM: 5, BenchTPACF: 7, BenchCUTCP: 8}
	for b, f := range wantFig {
		if b.Figure() != f {
			t.Errorf("%s figure = %d, want %d", b, b.Figure(), f)
		}
	}
	if BenchMRIQ.String() != "mri-q" || BenchCUTCP.String() != "cutcp" {
		t.Fatal("Bench strings wrong")
	}
}

func TestEdenJitterGrows(t *testing.T) {
	if edenJitter(1) != 1 {
		t.Fatalf("jitter(1) = %v", edenJitter(1))
	}
	if edenJitter(128) <= edenJitter(16) {
		t.Fatal("jitter not increasing with process count")
	}
}
