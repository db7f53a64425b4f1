// Package mriq implements the Parboil mri-q benchmark (paper §4.2): a
// non-uniform 3-D inverse Fourier transform. For every image voxel r, the
// kernel sums contributions from every frequency-domain sample k:
//
//	Q(r) = Σ_k φmag[k] · exp(2πi · (kx·rx + ky·ry + kz·rz))
//
// The loop is a flat parallel map over voxels with a dense inner reduction
// over samples — the paper's two-line Triolet program:
//
//	[sum(ftcoeff(k, r) for k in ks) for r in par(zip3(x, y, z))]
package mriq

import (
	"math"

	"triolet/internal/parboil"
)

// Input is one mri-q problem instance.
type Input struct {
	// Voxel coordinates (length NumVoxels).
	X, Y, Z []float32
	// Frequency-domain sample trajectory and magnitudes (length
	// NumSamples). PhiMag is precomputed as phiR²+phiI², as Parboil does.
	KX, KY, KZ, PhiMag []float32
}

// NumVoxels reports the image size.
func (in *Input) NumVoxels() int { return len(in.X) }

// NumSamples reports the k-space trajectory length.
func (in *Input) NumSamples() int { return len(in.KX) }

// QPoint is one output voxel of the complex image.
type QPoint struct {
	Re, Im float32
}

// Gen creates a deterministic instance with voxels in the unit cube and a
// k-space trajectory matching Parboil's value ranges.
func Gen(voxels, samples int, seed uint64) *Input {
	rng := parboil.NewRand(seed)
	in := &Input{
		X: make([]float32, voxels), Y: make([]float32, voxels), Z: make([]float32, voxels),
		KX: make([]float32, samples), KY: make([]float32, samples),
		KZ: make([]float32, samples), PhiMag: make([]float32, samples),
	}
	for i := range voxels {
		in.X[i] = rng.Float32()
		in.Y[i] = rng.Float32()
		in.Z[i] = rng.Float32()
	}
	for k := range samples {
		in.KX[k] = rng.Float32()*2 - 1
		in.KY[k] = rng.Float32()*2 - 1
		in.KZ[k] = rng.Float32()*2 - 1
		phiR := rng.Float32()*2 - 1
		phiI := rng.Float32()*2 - 1
		in.PhiMag[k] = phiR*phiR + phiI*phiI
	}
	return in
}

// ftCoeff is the per-(voxel, sample) contribution — the paper's ftcoeff.
func ftCoeff(in *Input, k int, x, y, z float32) (float32, float32) {
	exp := 2 * math.Pi * float64(in.KX[k]*x+in.KY[k]*y+in.KZ[k]*z)
	s, c := math.Sincos(exp)
	return in.PhiMag[k] * float32(c), in.PhiMag[k] * float32(s)
}

// VoxelQ computes one output voxel: the dense reduction over all samples.
// Every implementation — sequential, Triolet, Eden, reference — shares this
// innermost fused loop, so cross-implementation results are bit-identical.
func VoxelQ(in *Input, x, y, z float32) QPoint {
	var re, im float32
	for k := range in.KX {
		r, i := ftCoeff(in, k, x, y, z)
		re += r
		im += i
	}
	return QPoint{Re: re, Im: im}
}

// VoxelQEden is the Eden-style inner loop: the same reduction with the
// sine and cosine computed by separate calls instead of one fused Sincos.
// The paper attributes Eden's ~50 % longer mri-q sequential time to GHC's
// backend missing exactly this floating-point optimization (§4.2); the Go
// analog performs argument reduction twice and is measurably slower while
// producing identical values (math.Sincos is defined as (Sin(x), Cos(x))).
func VoxelQEden(in *Input, x, y, z float32) QPoint {
	var re, im float32
	for k := range in.KX {
		exp := 2 * math.Pi * float64(in.KX[k]*x+in.KY[k]*y+in.KZ[k]*z)
		re += in.PhiMag[k] * float32(math.Cos(exp))
		im += in.PhiMag[k] * float32(math.Sin(exp))
	}
	return QPoint{Re: re, Im: im}
}

// Seq is the sequential C-style kernel: the speedup-1.0 baseline of
// paper Fig. 4.
func Seq(in *Input) []QPoint {
	out := make([]QPoint, in.NumVoxels())
	ys, zs := in.Y[:len(out)], in.Z[:len(out)]
	for i := range out {
		out[i] = VoxelQ(in, in.X[i], ys[i], zs[i])
	}
	return out
}

// SplitQ unpacks an output image into separate real and imaginary planes
// (for comparison helpers that work on []float32).
func SplitQ(q []QPoint) (re, im []float32) {
	re = make([]float32, len(q))
	im = make([]float32, len(q))
	for i, p := range q {
		re[i] = p.Re
		im[i] = p.Im
	}
	return re, im
}
