package mriq

import (
	"fmt"
	"math"

	"triolet/internal/cluster"
	"triolet/internal/core"
	"triolet/internal/domain"
	"triolet/internal/eden"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// ---- codecs ----

// voxSlice is the per-node slice of voxel coordinates.
type voxSlice struct {
	X, Y, Z []float32
}

func voxCodec() serial.Codec[voxSlice] {
	return serial.Funcs[voxSlice]{
		Enc: func(w *serial.Writer, v voxSlice) {
			w.F32Slice(v.X)
			w.F32Slice(v.Y)
			w.F32Slice(v.Z)
		},
		Dec: func(r *serial.Reader) voxSlice {
			return voxSlice{X: r.F32Slice(), Y: r.F32Slice(), Z: r.F32Slice()}
		},
	}
}

// samples is the broadcast auxiliary input: the full k-space trajectory.
type samples struct {
	KX, KY, KZ, PhiMag []float32
}

func samplesCodec() serial.Codec[samples] {
	return serial.Funcs[samples]{
		Enc: func(w *serial.Writer, v samples) {
			w.F32Slice(v.KX)
			w.F32Slice(v.KY)
			w.F32Slice(v.KZ)
			w.F32Slice(v.PhiMag)
		},
		Dec: func(r *serial.Reader) samples {
			return samples{KX: r.F32Slice(), KY: r.F32Slice(), KZ: r.F32Slice(), PhiMag: r.F32Slice()}
		},
	}
}

// qCodec ships Q as one block copy: QPoint is a packed record of two
// float32 words.
var qCodec = serial.Records[QPoint, float32]()

func (s samples) toInput(v voxSlice) *Input {
	return &Input{X: v.X, Y: v.Y, Z: v.Z, KX: s.KX, KY: s.KY, KZ: s.KZ, PhiMag: s.PhiMag}
}

// computeLocal evaluates the voxel map for one node's slice on its pool —
// the fused localpar pipeline shared by the Triolet kernel and (without a
// pool) the Eden process body.
func computeLocal(pool *sched.Pool, in *Input) []QPoint {
	it := iter.LocalPar(iter.Map(func(t iter.Triple[float32, float32, float32]) QPoint {
		return VoxelQ(in, t.Fst, t.Snd, t.Trd)
	}, iter.Zip3(iter.FromSlice(in.X), iter.FromSlice(in.Y), iter.FromSlice(in.Z))))
	return core.BuildSliceLocal(pool, it, 8)
}

// SeqTriolet runs the Triolet iterator pipeline on one thread — the
// "Triolet" bar of paper Fig. 3 (sequential execution time).
func SeqTriolet(in *Input) []QPoint {
	return computeLocal(nil, in)
}

// SeqEden runs the Eden-style sequential kernel (un-fused Sin/Cos) — the
// "Eden" bar of paper Fig. 3. This is the paper's *optimized* Eden style:
// unboxed arrays with imperative loops.
func SeqEden(in *Input) []QPoint {
	out := make([]QPoint, in.NumVoxels())
	for i := range out {
		out[i] = VoxelQEden(in, in.X[i], in.Y[i], in.Z[i])
	}
	return out
}

// SeqEdenIdiomatic is the naive list-comprehension style the paper opens
// with (§1): every voxel, every sample contribution, and every
// intermediate value lives in a boxed cons list. Its per-thread
// performance is "an order of magnitude lower than sequential C chiefly
// due to the overhead of list manipulation" — quantified by
// BenchmarkAblationIdiomaticEden. Results are bit-identical to SeqEden
// (same arithmetic, same order); only the data representation differs.
func SeqEdenIdiomatic(in *Input) []QPoint {
	type voxel struct{ x, y, z float32 }
	voxSlice := make([]voxel, in.NumVoxels())
	for i := range voxSlice {
		voxSlice[i] = voxel{in.X[i], in.Y[i], in.Z[i]}
	}
	rs := eden.FromSlice(voxSlice) // boxed list of voxels
	ks := eden.FromSlice(seqInts(in.NumSamples()))

	// [ sum [ftcoeff k r | k <- ks] | r <- rs ]
	out := eden.Map(func(r voxel) QPoint {
		contribs := eden.Map(func(k int) QPoint {
			exp := 2 * math.Pi * float64(in.KX[k]*r.x+in.KY[k]*r.y+in.KZ[k]*r.z)
			return QPoint{
				Re: in.PhiMag[k] * float32(math.Cos(exp)),
				Im: in.PhiMag[k] * float32(math.Sin(exp)),
			}
		}, ks)
		return eden.Foldl(contribs, QPoint{}, func(a, c QPoint) QPoint {
			return QPoint{Re: a.Re + c.Re, Im: a.Im + c.Im}
		})
	}, rs)
	return eden.ToSlice(out)
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ---- Triolet ----

// trioletOp is the distributed skeleton instance: voxels sliced across
// nodes, samples broadcast, per-node sections gathered into the image.
var trioletOp = core.NewBuildArray(
	"mriq.triolet",
	voxCodec(),
	samplesCodec(),
	qCodec,
	func(n *cluster.Node, v voxSlice, aux samples) ([]QPoint, error) {
		return computeLocal(n.Pool, aux.toInput(v)), nil
	},
)

// Triolet runs the paper's Triolet implementation on a virtual cluster.
func Triolet(s *cluster.Session, in *Input) ([]QPoint, error) {
	src := core.FuncSource[voxSlice]{
		N: in.NumVoxels(),
		SliceFn: func(r domain.Range) voxSlice {
			return voxSlice{X: in.X[r.Lo:r.Hi], Y: in.Y[r.Lo:r.Hi], Z: in.Z[r.Lo:r.Hi]}
		},
	}
	return trioletOp.Run(s, src, samples{KX: in.KX, KY: in.KY, KZ: in.KZ, PhiMag: in.PhiMag})
}

// ---- Eden ----

// EdenChunk is the paper's chunked-vector Eden style (§4.2): voxel arrays
// are built as lists of 1k-element chunks so the runtime can distribute
// subarrays. Each task carries its chunk AND the full sample trajectory —
// Eden has no broadcast, so the samples are replicated into every task
// bundle (paper §1's "some input data are unnecessarily replicated").
const EdenChunkSize = 1024

type edenTask struct {
	Vox voxSlice
	Aux samples
}

func edenTaskCodec() serial.Codec[edenTask] {
	vc, sc := voxCodec(), samplesCodec()
	return serial.Funcs[edenTask]{
		Enc: func(w *serial.Writer, v edenTask) {
			vc.Encode(w, v.Vox)
			sc.Encode(w, v.Aux)
		},
		Dec: func(r *serial.Reader) edenTask {
			return edenTask{Vox: vc.Decode(r), Aux: sc.Decode(r)}
		},
	}
}

var edenProc = eden.Declare("mriq.eden", edenTaskCodec(), qCodec, edenBody)

// edenBody is the Eden process: one core and no pool, so sequential
// compute, with the un-fused Sin/Cos inner loop (see VoxelQEden).
func edenBody(task edenTask) []QPoint {
	in := task.Aux.toInput(task.Vox)
	out := make([]QPoint, len(in.X))
	for i := range out {
		out[i] = VoxelQEden(in, in.X[i], in.Y[i], in.Z[i])
	}
	return out
}

// Eden runs the chunked two-level Eden implementation.
func Eden(m *eden.Master, in *Input) ([]QPoint, error) {
	aux := samples{KX: in.KX, KY: in.KY, KZ: in.KZ, PhiMag: in.PhiMag}
	var tasks []edenTask
	for _, r := range domain.ChunkPartition(in.NumVoxels(), EdenChunkSize) {
		tasks = append(tasks, edenTask{
			Vox: voxSlice{X: in.X[r.Lo:r.Hi], Y: in.Y[r.Lo:r.Hi], Z: in.Z[r.Lo:r.Hi]},
			Aux: aux,
		})
	}
	chunks, err := edenProc.TwoLevelParMap(m, tasks)
	if err != nil {
		return nil, err
	}
	out := make([]QPoint, 0, in.NumVoxels())
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// ---- C+MPI+OpenMP reference ----

// Ref runs the hand-partitioned reference implementation with
// nonblocking, point-to-point messaging — the structure of the paper's
// fastest C version, which beat MPI's scatter/gather/broadcast primitives
// (§4.2). Rank 0 posts every slice-and-samples send and every section
// receive up front, computes its own section while the transfers are in
// flight, and waits at the end. Input lives at rank 0, as in an MPI
// program.
func Ref(cfg cluster.Config, in *Input) (out []QPoint, err error) {
	const (
		tagVox     = 1
		tagSamples = 2
		tagOut     = 3
	)
	cores := cfg.CoresPerNode
	err = mpi.Run(transport.Config{Ranks: cfg.Nodes}, func(c *mpi.Comm) error {
		pool := sched.NewPool(cores)
		defer pool.Close()

		compute := func(aux samples, mine voxSlice) []QPoint {
			local := aux.toInput(mine)
			sec := make([]QPoint, len(mine.X))
			pool.ParallelFor(len(sec), 8, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					sec[i] = VoxelQ(local, local.X[i], local.Y[i], local.Z[i])
				}
			})
			return sec
		}

		if c.Rank() == 0 {
			aux := samples{KX: in.KX, KY: in.KY, KZ: in.KZ, PhiMag: in.PhiMag}
			parts := make([]voxSlice, c.Size())
			for i, r := range domain.BlockPartition(in.NumVoxels(), c.Size()) {
				parts[i] = voxSlice{X: in.X[r.Lo:r.Hi], Y: in.Y[r.Lo:r.Hi], Z: in.Z[r.Lo:r.Hi]}
			}
			// Post all sends and all receives, then compute locally while
			// they are in flight.
			var sends []*mpi.Request
			auxBytes := serial.Marshal(samplesCodec(), aux)
			for dst := 1; dst < c.Size(); dst++ {
				sends = append(sends, c.Isend(dst, tagVox, serial.Marshal(voxCodec(), parts[dst])),
					c.Isend(dst, tagSamples, auxBytes))
			}
			recvs := make([]*mpi.Request, c.Size())
			for src := 1; src < c.Size(); src++ {
				recvs[src] = c.Irecv(src, tagOut)
			}
			sec0 := compute(aux, parts[0])
			if err := mpi.WaitAll(sends); err != nil {
				return err
			}
			out = make([]QPoint, 0, in.NumVoxels())
			out = append(out, sec0...)
			for src := 1; src < c.Size(); src++ {
				msg, err := recvs[src].Wait()
				if err != nil {
					return err
				}
				sec, err := serial.Unmarshal(qCodec, msg.Payload)
				if err != nil {
					return fmt.Errorf("mriq: section from rank %d: %w", src, err)
				}
				out = append(out, sec...)
			}
			return nil
		}

		voxMsg, err := c.Recv(0, tagVox)
		if err != nil {
			return err
		}
		mine, err := serial.Unmarshal(voxCodec(), voxMsg.Payload)
		if err != nil {
			return err
		}
		auxMsg, err := c.Recv(0, tagSamples)
		if err != nil {
			return err
		}
		aux, err := serial.Unmarshal(samplesCodec(), auxMsg.Payload)
		if err != nil {
			return err
		}
		return c.Send(0, tagOut, serial.Marshal(qCodec, compute(aux, mine)))
	})
	return out, err
}
