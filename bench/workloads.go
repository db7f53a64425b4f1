package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
	"unsafe"

	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/parboil"
	"triolet/internal/parboil/cutcp"
	"triolet/internal/parboil/sgemm"
	"triolet/internal/serial"
	"triolet/internal/stencil"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// A workload is one named set of inputs and one cluster configuration. Its
// set-up generates the inputs from the seed and computes the reference
// output; each rep then times one solve by the system under test, checks its
// output, and times the hand-written twin on the same inputs.

type workload struct {
	name string
	why  string
	// config is the timed configuration in words, printed with the results.
	config string
	setup  func(seed uint64, e env) (instance, error)
}

// env is what a set-up may use beyond the seed.
type env struct {
	svcJobs int // jobs per client per svc-closed segment
}

// instance is a set-up workload.
type instance interface {
	// rep runs one repetition. A solve that errs or fails its output check
	// is reported in rep.failures, not as an error; an error means the
	// benchmark itself could not run.
	rep(sc *scope) (rep, error)
	// warm runs one untimed warm-up solve.
	warm() (rep, error)
	// attribute runs the decomposition probes on the workload's own inputs
	// and the traffic r observed, and returns per-solve milliseconds; the
	// kernel probe is the median of kernelRuns runs.
	attribute(sc *scope, r rep, kernelRuns int) (attribution, error)
}

// rep is what one repetition measured.
type rep struct {
	solveMS  []float64       // one per solve (svc-closed: one per job)
	twinMS   float64         // the twin's time for one solve, same rep
	stats    transport.Stats // fabric traffic of the rep's solves
	alloc    uint64          // bytes allocated during the rep's solves
	failures []string        // one line per failed solve
	busyFrac float64         // svc-closed: worker busy share; 0 elsewhere
}

// attribution says where one solve's time went, in milliseconds. wire is
// computed from the observed traffic and the fabric's delay model, not timed.
type attribution struct {
	kernelMS, serialMS, wireMS float64
}

// wireDelay is the 1 GbE-class link the wire-bound workloads run on.
func wireDelay() *transport.DelayConfig {
	return &transport.DelayConfig{Latency: 50 * time.Microsecond, BytesPerSec: 125e6}
}

var workloads = []workload{
	{
		name:   "cutcp-node",
		why:    "cutcp.Triolet, 20000 atoms on 32^3, 1 node x 2 cores: iter+core+sched do all the work, zero wire; serial/transport/mpi/cluster changes predict no change",
		config: "cutcp.Triolet, 20000 atoms on 32^3, 1 node x 2 cores, plain fabric; twin cutcp.Ref",
		setup:  setupCutcp,
	},
	{
		name:   "sgemm-wire",
		why:    "sgemm.Triolet 384^3, 2 nodes x 1 core, 1 GbE-class link: few large messages, so serial, transport, mpi collectives and the 2-D partition carry the time; iter changes predict no change",
		config: "sgemm.Triolet 384^3, 2 nodes x 1 core, NetDelay 50us + 125 MB/s; twin sgemm.Seq",
		setup:  setupSgemm,
	},
	{
		name:   "heat-halo",
		why:    "stencil.Op heat 512x512, 50 sweeps, 2 nodes x 1 core, same link: the sweep kernel plus many small halo messages, mpi/transport latency-bound where sgemm-wire is bandwidth-bound",
		config: "stencil.Op heat 512x512 float64, 50 sweeps, Normal, 2 nodes x 1 core, NetDelay 50us + 125 MB/s; twin one-thread loop",
		setup:  setupHeat,
	},
	{
		name:   "life-farm",
		why:    "stencil.FarmOp life 128x128, 40 sweeps x 8 slabs, reliable lossless: 320 tiny farm tasks, so FarmOpts dispatch/poll/heartbeat and the reliable fast path are the cost; kernel changes predict no change",
		config: "stencil.FarmOp life 128x128 int64, 40 sweeps, 8 slabs, Wrap, 2 nodes x 1 core, reliable lossless; twin one-thread loop",
		setup:  func(seed uint64, _ env) (instance, error) { return setupLife(seed, false) },
	},
	{
		name:   "life-lossy",
		why:    "life-farm on a 2% drop/dup/corrupt fabric: the reliable layer's retry path beside life-farm's fast path, so a change that helps one and costs the other shows as a trade",
		config: "life-farm plus Fault 2% drop/dup/corrupt, reliable AckTimeout 500us, 60 retries, MaxAckTimeout 10ms",
		setup:  func(seed uint64, _ env) (instance, error) { return setupLife(seed, true) },
	},
	{
		name:   "svc-closed",
		why:    "jobs.Service, 2 closed-loop clients, 16-task jobs of a 100us hash, 3 nodes x 1 core: jobs admission/WDRR, cluster.Mux, the registry and reliable mpi; the only workload touching jobs, Mux, checkpoint",
		config: "jobs.Service on checkpoint.Mem, 2 closed-loop clients, 16-task jobs of a 100us hash, 3 nodes x 1 core, reliable lossless; twin in-process hash",
		setup:  setupSvc,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sinks keep the compiler from discarding a twin's or a probe's result.
var (
	sinkF32 float32
	sinkF64 float64
	sinkI64 int64
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// clusterInst is a workload that is one master program on a virtual cluster.
type clusterInst struct {
	name  string
	layer string // the layer the app call belongs to, for its span
	cfg   cluster.Config
	// solve runs the app on the session and keeps its output for check.
	solve func(s *cluster.Session) error
	// check compares the kept output with the reference; "" means equal.
	check func() string
	// twin runs the hand-written twin on the same inputs.
	twin func() error
	// roundTrip marshals and unmarshals a message of about the given size
	// in the workload's wire element type, for the serial attribution probe.
	roundTrip func(bytes int) error
}

// timedRun runs master on a fresh virtual cluster and reports wall time,
// traffic and allocation. A traced run also attaches the product tracer, so
// that traced minus untraced is the whole cost of switching tracing on.
func timedRun(cfg cluster.Config, sc *scope, layer string, master func(*cluster.Session) error) (ms float64, st transport.Stats, alloc uint64, err error) {
	if sc.traced() {
		cfg.Tracer = trace.New()
	}
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	root, end := sc.begin(0, "cluster.Run", "cluster")
	st, err = cluster.Run(cfg, func(s *cluster.Session) error {
		_, endApp := sc.begin(root, "app", layer)
		defer endApp()
		return master(s)
	})
	end()
	ms = msSince(t0)
	return ms, st, totalAlloc() - a0, err
}

func (in *clusterInst) rep(sc *scope) (rep, error) {
	ms, st, alloc, err := timedRun(in.cfg, sc, in.layer, in.solve)
	r := rep{solveMS: []float64{ms}, stats: st, alloc: alloc}
	if err != nil {
		r.failures = append(r.failures, "solve: "+err.Error())
	} else if msg := in.check(); msg != "" {
		r.failures = append(r.failures, "output check: "+msg)
	}
	runtime.GC()
	t0 := time.Now()
	_, end := sc.begin(0, "twin", "twin")
	err = in.twin()
	end()
	r.twinMS = msSince(t0)
	if err != nil {
		return r, fmt.Errorf("%s: twin: %w", in.name, err)
	}
	return r, nil
}

func (in *clusterInst) attribute(sc *scope, r rep, kernelRuns int) (attribution, error) {
	var a attribution
	// kernel: the same problem on one node with the same thread count, so
	// nothing crosses the fabric; a median, since single solves on this
	// host differ by a fifth.
	local := cluster.Config{Nodes: 1, CoresPerNode: in.cfg.TotalCores()}
	_, end := sc.begin(0, "probe.kernel", "kernel")
	runs := make([]float64, kernelRuns)
	for i := range runs {
		ms, _, _, err := timedRun(local, nil, in.layer, in.solve)
		if err != nil {
			end()
			return a, fmt.Errorf("%s: kernel probe: %w", in.name, err)
		}
		if msg := in.check(); msg != "" {
			end()
			return a, fmt.Errorf("%s: kernel probe output: %s", in.name, msg)
		}
		runs[i] = ms
	}
	end()
	a.kernelMS = median(runs)

	// serial: encode and decode the volume the solve shipped, in as many
	// messages as it shipped.
	if r.stats.Messages > 0 {
		per := int(r.stats.Bytes / r.stats.Messages)
		_, end := sc.begin(0, "probe.serial", "serial")
		t0 := time.Now()
		for i := int64(0); i < r.stats.Messages; i++ {
			if err := in.roundTrip(per); err != nil {
				end()
				return a, fmt.Errorf("%s: serial probe: %w", in.name, err)
			}
		}
		a.serialMS = msSince(t0)
		end()
	}
	a.wireMS = computedWireMS(in.cfg.NetDelay, r.stats)
	return a, nil
}

// computedWireMS is the sum of the fabric's hold time over the observed
// traffic: per-message latency plus bytes over bandwidth.
func computedWireMS(d *transport.DelayConfig, st transport.Stats) float64 {
	if d == nil || st.Messages == 0 {
		return 0
	}
	// The model is linear in size, so every message at the mean size sums
	// to the same as each at its own.
	f := transport.New(transport.Config{Ranks: 1, Delay: d})
	defer f.Close()
	total := time.Duration(st.Messages) * f.WireDelay(int(st.Bytes/st.Messages))
	return float64(total) / float64(time.Millisecond)
}

func (in *clusterInst) warm() (rep, error) { return in.rep(nil) }

// roundTripOf builds a serial attribution probe over a slice codec.
func roundTripOf[T any](c serial.Codec[[]T]) func(bytes int) error {
	var buf []T
	var zero T
	return func(bytes int) error {
		n := bytes / int(unsafe.Sizeof(zero))
		if len(buf) < n {
			buf = make([]T, n)
		}
		_, err := serial.Unmarshal(c, serial.Marshal(c, buf[:n]))
		return err
	}
}

func setupCutcp(seed uint64, _ env) (instance, error) {
	in := cutcp.Gen(20000, domain.NewDim3(32, 32, 32), 0.5, 2.0, seed)
	want := cutcp.Seq(in)
	cfg := cluster.Config{Nodes: 1, CoresPerNode: 2}
	var got []float32
	return &clusterInst{
		name: "cutcp-node", layer: "iter", cfg: cfg,
		solve: func(s *cluster.Session) (err error) {
			got, err = cutcp.Triolet(s, in)
			return err
		},
		check: func() string {
			if len(got) != len(want) {
				return fmt.Sprintf("grid has %d points, want %d", len(got), len(want))
			}
			// A grid point is a sum of some 180 signed terms of magnitude
			// up to 1 and the two threads' summation order is not fixed,
			// so the denominator is floored at one term's scale: near-zero
			// points are judged by absolute error, a missing atom still shows.
			if d := parboil.MaxRelDiff(got, want, 1); d > 1e-3 {
				return fmt.Sprintf("max relative difference %.3g from cutcp.Seq exceeds 1e-3", d)
			}
			return ""
		},
		twin: func() error {
			_, err := cutcp.Ref(cfg, in)
			return err
		},
		roundTrip: roundTripOf(serial.F32s()),
	}, nil
}

func setupSgemm(seed uint64, _ env) (instance, error) {
	in := sgemm.Gen(384, 384, 384, seed)
	want := sgemm.Seq(in)
	var got []float32
	return &clusterInst{
		name: "sgemm-wire", layer: "core",
		cfg: cluster.Config{Nodes: 2, CoresPerNode: 1, NetDelay: wireDelay()},
		solve: func(s *cluster.Session) error {
			m, err := sgemm.Triolet(s, in)
			got = m.Data
			return err
		},
		check: func() string { return equalBits32(got, want.Data) },
		twin: func() error {
			sinkF32 = sgemm.Seq(in).Data[0]
			return nil
		},
		roundTrip: roundTripOf(serial.F32s()),
	}, nil
}

func equalBits32(got, want []float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("element %d is %v, want %v bit-for-bit", i, got[i], want[i])
		}
	}
	return ""
}

func setupHeat(seed uint64, _ env) (instance, error) {
	const side, sweeps = 512, 50
	g := genHeatGrid(side, side, seed)
	raw := newRawGrids[float64](side * side)
	want := fnvF64(raw.iterate(g, sweeps, heatSweepRaw))
	par := stencil.Params[float64]{Radius: 1, Boundary: stencil.Normal}
	var got iter.Matrix2[float64]
	return &clusterInst{
		name: "heat-halo", layer: "stencil",
		cfg: cluster.Config{Nodes: 2, CoresPerNode: 1, NetDelay: wireDelay()},
		solve: func(s *cluster.Session) (err error) {
			got, err = heatOp.Run(s, g, par, sweeps)
			return err
		},
		check: func() string {
			if sum := fnvF64(got.Data); sum != want {
				return fmt.Sprintf("grid FNV %016x, want %016x from the hand-written loop", sum, want)
			}
			return ""
		},
		twin: func() error {
			sinkF64 = raw.iterate(g, sweeps, heatSweepRaw)[0]
			return nil
		},
		roundTrip: roundTripOf(serial.F64s()),
	}, nil
}

func setupLife(seed uint64, lossy bool) (instance, error) {
	const side, sweeps, slabs = 128, 40, 8
	g := genLifeGrid(side, side, seed)
	raw := newRawGrids[int64](side * side)
	want := fnvI64(raw.iterate(g, sweeps, lifeSweepRaw))
	par := stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}
	cfg := cluster.Config{Nodes: 2, CoresPerNode: 1, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
	name := "life-farm"
	if lossy {
		name = "life-lossy"
		p := transport.FaultProbs{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02}
		cfg.Fault = &transport.FaultConfig{Seed: int64(seed), Default: p}
		cfg.Reliable = &mpi.ReliableConfig{
			AckTimeout: 500 * time.Microsecond, Retries: 60,
			MaxAckTimeout: 10 * time.Millisecond, JitterSeed: int64(seed),
		}
	}
	var got iter.Matrix2[int64]
	return &clusterInst{
		name: name, layer: "stencil", cfg: cfg,
		solve: func(s *cluster.Session) (err error) {
			got, err = lifeOp.Run(s, g, par, sweeps, stencil.FarmRunOptions{Slabs: slabs})
			return err
		},
		check: func() string {
			if sum := fnvI64(got.Data); sum != want {
				return fmt.Sprintf("grid FNV %016x, want %016x from the hand-written loop", sum, want)
			}
			return ""
		},
		twin: func() error {
			sinkI64 = raw.iterate(g, sweeps, lifeSweepRaw)[0]
			return nil
		},
		roundTrip: roundTripOf(serial.I64s()),
	}, nil
}
