package perfmodel

import (
	"slices"
	"time"

	"triolet/internal/array"
	"triolet/internal/domain"
	"triolet/internal/parboil/cutcp"
	"triolet/internal/parboil/mriq"
	"triolet/internal/parboil/sgemm"
	"triolet/internal/parboil/tpacf"
	"triolet/internal/serial"
)

// Calibration holds the measured per-unit costs, in seconds per unit, that
// feed the analytic model. Indexing by Impl gives each implementation's
// measured kernel cost.
type Calibration struct {
	// MRIQUnit is the cost of one voxel×sample update.
	MRIQUnit [3]float64
	// SGEMMMac is the cost of one multiply-accumulate in the dot-product
	// inner loop.
	SGEMMMac [3]float64
	// SGEMMTransposeElem is the cost of moving one element during
	// transposition.
	SGEMMTransposeElem float64
	// TPACFPair is the cost of scoring one pair (including the bin scan).
	TPACFPair [3]float64
	// CUTCPCell is the cost of one grid-cell visit in an atom's bounding
	// box.
	CUTCPCell [3]float64
	// SerPerByte is the cost of serializing one byte of pointer-free
	// array data (internal/serial's block path), deserialization included.
	SerPerByte float64
	// AllocPerByte is the cost of allocating and faulting in one byte of
	// a large buffer — the model's stand-in for the paper's GC overhead
	// on tens-of-megabyte messages (§4.3, §4.5).
	AllocPerByte float64
	// AddF32 is the cost of one element of AddInto on float32 grids (the
	// histogram/grid merge step).
	AddF32 float64
}

// measure times f repeatedly and returns best-observed seconds per unit,
// where each call of f performs units work items. Taking the minimum
// rejects scheduler noise, which matters on a small shared machine:
// identical kernels must calibrate to identical costs.
func measure(units int, f func()) float64 {
	return measureEach(units, f)[0]
}

// measureEach is measure for rival implementations of one kernel, timed in
// interleaved rounds — fs[0], fs[1], …, fs[0], … — each keeping its own
// minimum. The model's shape claims are orderings between rivals, so a
// burst of host load must not land on one of them alone, as it does when
// each is measured to completion before the next starts. Rounds continue
// until the minima have settled: on a busy host a rival that has not yet
// had a clean run keeps improving, and stopping at a fixed count would
// freeze that lag into the ordering.
func measureEach(units int, fs ...func()) []float64 {
	const (
		minDur    = 25 * time.Millisecond
		minRounds = 5
		settled   = 3  // consecutive rounds in which no minimum fell by 2 %
		maxRounds = 60 // bound on a host that never goes quiet
	)
	best := make([]time.Duration, len(fs))
	total := make([]time.Duration, len(fs))
	for i, f := range fs {
		f() // warm up
		best[i] = time.Duration(1<<62 - 1)
	}
	quiet := 0
	for round := 0; ; round++ {
		sampled := round >= minRounds && slices.Min(total) >= minDur
		if sampled && (quiet >= settled || round >= maxRounds) {
			break
		}
		quiet++
		for i, f := range fs {
			start := time.Now()
			f()
			d := time.Since(start)
			total[i] += d
			if d < best[i]-best[i]/50 {
				quiet = 0
			}
			best[i] = min(best[i], d)
		}
	}
	out := make([]float64, len(fs))
	for i, b := range best {
		out[i] = b.Seconds() / float64(units)
	}
	return out
}

var sink float64 // defeat dead-code elimination

// CalibratePlanning measures only what the AutoPar planner consumes: the
// Triolet-implementation unit costs plus the serialization, allocation,
// and grid-merge costs. Skipping the RefC/Eden variants makes it ~3x
// cheaper than Calibrate, which matters because the planner runs it at
// tool startup rather than once per figure sweep. RefC/Eden slots are
// left zero — a planning calibration must not feed the figure model.
func CalibratePlanning() Calibration {
	var c Calibration

	{
		in := mriq.Gen(192, 256, 42)
		units := in.NumVoxels() * in.NumSamples()
		c.MRIQUnit[Triolet] = measure(units, func() { sink += float64(mriq.SeqTriolet(in)[0].Re) })
	}
	{
		in := sgemm.Gen(320, 320, 320, 42)
		c.SGEMMMac[Triolet] = measure(320*320*320, func() { sink += float64(sgemm.SeqTriolet(in).Data[0]) })
	}
	{
		in := tpacf.Gen(96, 4, 20, 42)
		n := int64(96)
		s := int64(4)
		units := int(n*(n-1)/2 + s*(n*n) + s*(n*(n-1)/2))
		c.TPACFPair[Triolet] = measure(units, func() { sink += float64(tpacf.SeqTriolet(in).DD[0]) })
	}
	{
		in := cutcp.Gen(64, domain.Dim3{D: 16, H: 16, W: 16}, 0.5, 2.0, 42)
		units := 0
		for _, a := range in.Atoms {
			zr, yr, xr := cutcp.AtomBox(in.Geo, a)
			units += zr.Len() * yr.Len() * xr.Len()
		}
		c.CUTCPCell[Triolet] = measure(units, func() { sink += float64(cutcp.SeqTriolet(in)[0]) })
	}
	measureCommon(&c)
	return c
}

// Calibrate measures every unit cost on the current machine. It takes on
// the order of a second and should be called once per process. Each
// kernel's rivals are passed to measureEach in Impl order: RefC, Triolet,
// Eden.
func Calibrate() Calibration {
	var c Calibration

	// mri-q: 192 voxels × 256 samples.
	{
		in := mriq.Gen(192, 256, 42)
		units := in.NumVoxels() * in.NumSamples()
		c.MRIQUnit = [3]float64(measureEach(units,
			func() { sink += float64(mriq.Seq(in)[0].Re) },
			func() { sink += float64(mriq.SeqTriolet(in)[0].Re) },
			func() { sink += float64(mriq.SeqEden(in)[0].Re) }))
	}

	// sgemm: 320³, large enough that per-element pipeline overhead is
	// amortized over a realistic K as it would be at paper scale.
	{
		in := sgemm.Gen(320, 320, 320, 42)
		units := 320 * 320 * 320
		c.SGEMMMac = [3]float64(measureEach(units,
			func() { sink += float64(sgemm.Seq(in).Data[0]) },
			func() { sink += float64(sgemm.SeqTriolet(in).Data[0]) },
			func() { sink += float64(sgemm.SeqEden(in).Data[0]) }))

		m := array.NewMatrix[float32](256, 256)
		c.SGEMMTransposeElem = measure(256*256, func() {
			sink += float64(array.Transpose(m).Data[0])
		})
	}

	// tpacf: 96 points, 4 random sets, 20 bins.
	{
		in := tpacf.Gen(96, 4, 20, 42)
		n := int64(96)
		s := int64(4)
		units := int(n*(n-1)/2 + s*(n*n) + s*(n*(n-1)/2))
		c.TPACFPair = [3]float64(measureEach(units,
			func() { sink += float64(tpacf.Seq(in).DD[0]) },
			func() { sink += float64(tpacf.SeqTriolet(in).DD[0]) },
			func() { sink += float64(tpacf.SeqEden(in).DD[0]) }))
	}

	// cutcp: 64 atoms on a 16³ grid.
	{
		in := cutcp.Gen(64, domain.Dim3{D: 16, H: 16, W: 16}, 0.5, 2.0, 42)
		units := 0
		for _, a := range in.Atoms {
			zr, yr, xr := cutcp.AtomBox(in.Geo, a)
			units += zr.Len() * yr.Len() * xr.Len()
		}
		c.CUTCPCell = [3]float64(measureEach(units,
			func() { sink += float64(cutcp.Seq(in)[0]) },
			func() { sink += float64(cutcp.SeqTriolet(in)[0]) },
			func() { sink += float64(cutcp.SeqEden(in)[0]) }))
	}

	measureCommon(&c)
	return c
}

// measureCommon fills the implementation-independent costs shared by
// Calibrate and CalibratePlanning.
func measureCommon(c *Calibration) {
	// Serialization: block-encode + decode 1 MB of float32.
	{
		xs := make([]float32, 256*1024)
		bytes := 4 * len(xs)
		c.SerPerByte = measure(bytes, func() {
			w := serial.NewWriter(bytes + 16)
			w.F32Slice(xs)
			out := serial.NewReader(w.Bytes()).F32Slice()
			sink += float64(out[0])
		})
	}

	// Allocation: allocate and touch 4 MB.
	{
		const n = 1 << 20 // float32 count → 4 MB
		c.AllocPerByte = measure(4*n, func() {
			buf := make([]float32, n)
			for i := 0; i < n; i += 1024 {
				buf[i] = 1
			}
			sink += float64(buf[0])
		})
	}

	// Grid merge: AddInto on float32.
	{
		const n = 1 << 18
		dst := make([]float32, n)
		src := make([]float32, n)
		c.AddF32 = measure(n, func() {
			array.AddInto(dst, src)
			sink += float64(dst[0])
		})
	}
}
