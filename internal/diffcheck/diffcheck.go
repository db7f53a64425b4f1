// Package diffcheck is the cross-mode differential oracle: it executes one
// declarative pipeline description under a cross-product of execution modes
// — per-element vs block engine, sequential vs thread-parallel vs
// distributed, lossless vs faulty fabric, fresh vs kill-and-resume — and
// demands that every mode computes the same answer under a single declared
// floating-point contract:
//
//   - integer results (elements, counts, integer sums, histogram bins) are
//     bit-identical across all modes, always;
//   - floating-point sums are bit-identical within the deterministic family
//     (thread-parallel and distributed runs at any node count use the
//     fixed-chunk fold + fixed combine tree of internal/core's
//     deterministic reductions), and within TolFloatSum of the sequential
//     left fold.
//
// On a mismatch the harness shrinks the pipeline to a minimal failing case
// and emits a ready-to-commit Go test reproducer naming the seed, the op
// sequence, and the diverging mode pair. The fast gate subset runs on every
// push (go test ./internal/diffcheck -run Gate); the nightly soak runs long
// random streams under -race.
package diffcheck

import (
	"fmt"
	"math"

	"triolet/internal/core"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/sched"
)

// Pipeline is a declarative, serializable description of an iterator
// computation: a seed slice fed through a sequence of generated ops (map,
// filter, concatMap, take, drop, chain, scan — see iter.PipeOp). The same
// description can be built on any node, which is what lets one pipeline
// execute under every mode.
type Pipeline struct {
	Seed []int64
	Ops  []iter.PipeOp
}

// Build constructs the pipeline's iterator.
func (p Pipeline) Build() iter.Iter[int64] { return iter.BuildPipeline(p.Seed, p.Ops) }

// Ref computes the pipeline's elements with the plain-slice reference
// semantics, the ground truth every mode is ultimately compared against.
// ok is false when an intermediate slice exceeds limit elements.
func (p Pipeline) Ref(limit int) ([]int64, bool) { return iter.RefPipeline(p.Seed, p.Ops, limit) }

func (p Pipeline) String() string {
	return fmt.Sprintf("Pipeline{Seed: %d elems, Ops: %v}", len(p.Seed), p.Ops)
}

// Engine selects how a mode observes the pipeline. It is a value the
// executors pass down to observe (and ship in the Par task), not a switch
// inside internal/iter: the library has one engine.
type Engine uint8

const (
	// PerElement observes through iter.ToStep, which touches only At and
	// Cursor: one element at a time, no block representation consulted.
	PerElement Engine = iota
	// Block observes through the library's consumers (ToSlice, Count, Sum,
	// Histogram, Reduce) and so through the block driver.
	Block
)

// Exec selects the parallelism level.
type Exec uint8

const (
	// Seq consumes the pipeline on one goroutine.
	Seq Exec = iota
	// LocalPar consumes it on a work-stealing thread pool (one node).
	LocalPar
	// Par distributes fixed-offset chunks over a virtual cluster as farm
	// tasks.
	Par
)

// Fabric selects the simulated network's behavior (Par only).
type Fabric uint8

const (
	// Lossless delivers every message intact.
	Lossless Fabric = iota
	// Lossy drops, duplicates, and corrupts ~2% of messages each; the
	// reliable layer must hide it.
	Lossy
)

// Lifecycle selects whether the distributed run survives a master kill
// (Par only).
type Lifecycle uint8

const (
	// Fresh runs the job start to finish in one session.
	Fresh Lifecycle = iota
	// Resume kills the first session mid-job (context cancel once the WAL
	// holds at least one record) and finishes in a second session resumed
	// from the WAL.
	Resume
)

// Mode is one cell of the execution matrix.
type Mode struct {
	Engine    Engine
	Exec      Exec
	Nodes     int // Par only; 0 means 1
	Fabric    Fabric
	Lifecycle Lifecycle
}

func (m Mode) nodes() int {
	if m.Nodes <= 0 {
		return 1
	}
	return m.Nodes
}

func (m Mode) String() string {
	eng := "perelem"
	if m.Engine == Block {
		eng = "block"
	}
	switch m.Exec {
	case Seq:
		return eng + "/seq"
	case LocalPar:
		return eng + "/localpar"
	}
	s := fmt.Sprintf("%s/par@%d", eng, m.nodes())
	if m.Fabric == Lossy {
		s += "/lossy"
	}
	if m.Lifecycle == Resume {
		s += "/resume"
	}
	return s
}

// Options tunes a run. The zero value is valid.
type Options struct {
	// Chunk is the fixed chunk width for the chunked executors (default
	// core.DetChunk). Shrunk reproducers use small chunks so minimal
	// failing pipelines stay minimal.
	Chunk int
	// Cores is the pool width for LocalPar and the per-node core count for
	// Par (default 4).
	Cores int
}

func (o Options) chunk() int {
	if o.Chunk <= 0 {
		return core.DetChunk
	}
	return o.Chunk
}

func (o Options) cores() int {
	if o.Cores <= 0 {
		return 4
	}
	return o.Cores
}

// refLimit bounds reference-semantics intermediate slices, in elements.
const refLimit = 1 << 20

// HistBins is the histogram width every mode computes.
const HistBins = 64

// Obs is the observation a mode produces: every consumer family the
// iterator library offers, computed through the engine under test.
type Obs struct {
	Elems []int64 // ToSlice
	Count int64   // Count
	Sum   int64   // integer Sum
	Hist  []int64 // Histogram over ((v mod 64)+64) mod 64
	FSum  float64 // float64 Sum of v*0.1
	FAbs  float64 // float64 Sum of |v*0.1| — the conditioning scale for FSum
}

// observe consumes it through the given engine: once per consumer for
// Block, all six fields in one left fold over the stepper for PerElement.
// Folds are in element order, so within one contiguous range the result is
// engine- and schedule-independent.
func observe(it iter.Iter[int64], eng Engine) Obs {
	if eng == PerElement {
		return iter.FoldStep(iter.ToStep(it), Obs{Hist: make([]int64, HistBins)}, func(o Obs, v int64) Obs {
			f := float64(v) * 0.1
			o.Elems = append(o.Elems, v)
			o.Count++
			o.Sum += v
			o.Hist[((v%HistBins)+HistBins)%HistBins]++
			o.FSum += f
			o.FAbs += math.Abs(f)
			return o
		})
	}
	fit := iter.Map(func(v int64) float64 { return float64(v) * 0.1 }, it)
	bins := iter.Map(func(v int64) int { return int(((v % HistBins) + HistBins) % HistBins) }, it)
	return Obs{
		Elems: iter.ToSlice(it),
		Count: int64(iter.Count(it)),
		Sum:   iter.Sum(it),
		Hist:  iter.Histogram(HistBins, bins),
		FSum:  iter.Sum(fit),
		FAbs:  iter.Reduce(fit, 0.0, func(a, v float64) float64 { return a + math.Abs(v) }),
	}
}

// mergeObs combines per-chunk observations, in chunk order. Integer fields
// merge exactly (concatenation and addition commute with chunking); the
// float sums combine with the fixed tree, matching core's deterministic
// reductions.
func mergeObs(parts []Obs) Obs {
	out := Obs{Hist: make([]int64, HistBins)}
	fs := make([]float64, len(parts))
	fa := make([]float64, len(parts))
	for i, p := range parts {
		out.Elems = append(out.Elems, p.Elems...)
		out.Count += p.Count
		out.Sum += p.Sum
		for b, v := range p.Hist {
			out.Hist[b] += v
		}
		fs[i], fa[i] = p.FSum, p.FAbs
	}
	add := func(a, b float64) float64 { return a + b }
	out.FSum = core.CombineTree(fs, 0, add)
	out.FAbs = core.CombineTree(fa, 0, add)
	return out
}

// chunkRanges cuts the pipeline's outer domain into fixed-width chunks at
// absolute offsets. ok is false for unsplittable pipelines (stepper-rooted
// after Take/Drop/Chain/Scan), which execute as one whole-domain piece.
func chunkRanges(it iter.Iter[int64], chunk int) ([]domain.Range, bool) {
	n, known := it.OuterLen()
	if !known || !it.CanSplit() {
		return nil, false
	}
	return domain.ChunkPartition(n, chunk), true
}

// runLocalPar is the LocalPar executor: per-chunk observations computed on
// a work-stealing pool, merged in chunk order. Any pool width or steal
// schedule produces identical bytes.
func runLocalPar(p Pipeline, eng Engine, opt Options) Obs {
	it := p.Build()
	chunks, ok := chunkRanges(it, opt.chunk())
	if !ok {
		return mergeObs([]Obs{observe(it, eng)})
	}
	parts := make([]Obs, len(chunks))
	if len(chunks) > 0 {
		pool := sched.NewPool(opt.cores())
		pool.ParallelFor(len(chunks), 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				parts[i] = observe(iter.Split(it, chunks[i]), eng)
			}
		})
		pool.Close()
	}
	return mergeObs(parts)
}

// Run executes the pipeline under one mode and returns its observation.
func Run(p Pipeline, m Mode, opt Options) (Obs, error) {
	switch m.Exec {
	case Seq:
		// Plain consumers on the calling goroutine.
		return observe(p.Build(), m.Engine), nil
	case LocalPar:
		return runLocalPar(p, m.Engine, opt), nil
	case Par:
		parts, err := parParts(p, m, opt)
		if err != nil {
			return Obs{}, err
		}
		return mergeObs(parts), nil
	}
	return Obs{}, fmt.Errorf("diffcheck: unknown exec %d", m.Exec)
}
