package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/core"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/perfmodel"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/stencil"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Layer probes: each times calls into one layer's public functions on fixed
// inputs. They do not depend on the workload being run and are reported once
// per run. A time is the median over rounds of a batch's mean; a ratio is the
// median over rounds of two batches timed back to back, so both sides of it
// saw the same machine.

type probeEffort struct {
	passes  int           // times the whole probe set runs
	rounds  int           // timed batches per probe per pass
	batch   time.Duration // how long one timed batch should last
	svcJobs int           // jobs per client in the job-service probe segment
}

// batchN sizes a batch of f to about e.batch.
func (e probeEffort) batchN(f func()) int {
	t0 := time.Now()
	f()
	once := max(time.Since(t0), time.Nanosecond)
	return int(max(1, e.batch/once))
}

func timeBatch(f func(), n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n)
}

// perOp is the median over rounds of f's mean time per call, in nanoseconds.
func (e probeEffort) perOp(f func()) float64 {
	n := e.batchN(f)
	ts := make([]float64, e.rounds)
	for i := range ts {
		ts[i] = timeBatch(f, n)
	}
	return median(ts)
}

// ratio is the median over rounds of time(a) ÷ time(b).
func (e probeEffort) ratio(a, b func()) float64 {
	na, nb := e.batchN(a), e.batchN(b)
	rs := make([]float64, e.rounds)
	for i := range rs {
		rs[i] = timeBatch(a, na) / timeBatch(b, nb)
	}
	return median(rs)
}

// allocsPerOp counts heap allocations per call of f.
func allocsPerOp(f func(), runs int) float64 {
	f() // warm lazily built state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// layerProbes runs every probe e.passes times and returns, in a fixed order,
// each metric's median over the passes: a pass lasts seconds, so the passes
// see different moments of a host whose speed changes from one second to the
// next, which the rounds inside one probe do not.
func layerProbes(e probeEffort, seed uint64, tmp string) ([]metric, error) {
	var out []metric
	values, samples := map[string][]float64{}, map[string]int{}
	for pass := 0; pass < e.passes; pass++ {
		for _, p := range []func(probeEffort, uint64, string) ([]metric, error){
			iterProbes, stencilProbes, schedProbes, coreProbes, serialProbes,
			transportProbes, mpiProbes, clusterProbes, checkpointProbes,
			jobsProbes, perfmodelProbes, traceProbes, parboilProbes,
		} {
			ms, err := p(e, seed, tmp)
			if err != nil {
				return nil, err
			}
			for _, m := range ms {
				if pass == 0 {
					out = append(out, metric{Name: m.Name, Unit: m.Unit})
				}
				values[m.Name] = append(values[m.Name], m.Value)
				samples[m.Name] += m.Samples
			}
		}
	}
	for i := range out {
		out[i].Value = median(values[out[i].Name])
		out[i].Samples = samples[out[i].Name]
	}
	return out, nil
}

// Fixed probe data: 2^15 elements, the shapes of BENCH_BASELINE.json.
var (
	probeInts = func() []int64 {
		xs := make([]int64, 1<<15)
		for i := range xs {
			xs[i] = int64(i % 1003)
		}
		return xs
	}()
	probeFloatsA, probeFloatsB = func() ([]float64, []float64) {
		a := make([]float64, 1<<15)
		b := make([]float64, 1<<15)
		for i := range a {
			a[i] = float64(i%911) * 0.5
			b[i] = float64(i%613) * 0.25
		}
		return a, b
	}()
)

func iterProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	xs, fa, fb := probeInts, probeFloatsA, probeFloatsB
	mapMap := iter.Map(func(x int64) int64 { return x + 1 },
		iter.Map(func(x int64) int64 { return x * 3 }, iter.FromSlice(xs)))
	concat := iter.ConcatMap(func(v int64) iter.Iter[int64] {
		n := int(v % 4)
		return iter.Map(func(j int) int64 { return v + int64(j) }, iter.Range(n))
	}, iter.FromSlice(xs))
	cases := []struct {
		name          string
		pipeline, raw func()
	}{
		{"sum-flat",
			func() { sinkI64 = iter.Sum(iter.FromSlice(xs)) },
			func() {
				var acc int64
				for _, v := range xs {
					acc += v
				}
				sinkI64 = acc
			}},
		{"map-map-sum",
			func() { sinkI64 = iter.Sum(mapMap) },
			func() {
				var acc int64
				for _, v := range xs {
					acc += v*3 + 1
				}
				sinkI64 = acc
			}},
		{"filter-sum",
			func() {
				sinkI64 = iter.Sum(iter.Filter(func(v int64) bool { return v%3 == 0 }, iter.FromSlice(xs)))
			},
			func() {
				var acc int64
				for _, v := range xs {
					if v%3 == 0 {
						acc += v
					}
				}
				sinkI64 = acc
			}},
		{"zipwith-sum",
			func() {
				sinkI64 = iter.Sum(iter.ZipWith(func(a, b int64) int64 { return a * b },
					iter.FromSlice(xs), iter.FromSlice(xs)))
			},
			func() {
				var acc int64
				for i, v := range xs {
					acc += v * xs[i]
				}
				sinkI64 = acc
			}},
		{"histogram",
			func() {
				sinkI64 = iter.Histogram(64, iter.Map(func(v int64) int { return int(v % 64) }, iter.FromSlice(xs)))[7]
			},
			func() {
				var bins [64]int64
				for _, v := range xs {
					bins[v%64]++
				}
				sinkI64 = bins[7]
			}},
		{"concatmap-sum",
			func() { sinkI64 = iter.Sum(concat) },
			func() {
				var acc int64
				for _, v := range xs {
					n := int(v % 4)
					for j := 0; j < n; j++ {
						acc += v + int64(j)
					}
				}
				sinkI64 = acc
			}},
		{"dot-product",
			func() {
				sinkF64 = iter.Sum(iter.Map(func(p iter.Pair[float64, float64]) float64 { return p.Fst * p.Snd },
					iter.Zip(iter.FromSlice(fa), iter.FromSlice(fb))))
			},
			func() {
				var acc float64
				for i, v := range fa {
					acc += v * fb[i]
				}
				sinkF64 = acc
			}},
	}
	var out []metric
	for _, c := range cases {
		out = append(out, metric{Name: "iter." + c.name + ".vs_raw", Unit: "ratio",
			Value: e.ratio(c.pipeline, c.raw), Samples: e.rounds})
	}
	out = append(out,
		metric{Name: "iter.concatmap-sum.allocs_per_op", Unit: "count",
			Value: allocsPerOp(func() { sinkI64 = iter.Sum(concat) }, 4), Samples: 4},
		metric{Name: "iter.map-map-sum.allocs_per_op", Unit: "count",
			Value: allocsPerOp(func() { sinkI64 = iter.Sum(mapMap) }, 16), Samples: 16})
	return out, nil
}

func stencilProbes(e probeEffort, seed uint64, _ string) ([]metric, error) {
	const h, w = 192, 176
	heat := genHeatGrid(h, w, seed)
	heatDst := iter.Matrix2[float64]{H: h, W: w, Data: make([]float64, h*w)}
	life := genLifeGrid(h, w, seed)
	lifeDst := iter.Matrix2[int64]{H: h, W: w, Data: make([]int64, h*w)}
	heatSt := stencil.Stencil[float64]{Params: stencil.Params[float64]{Radius: 1, Boundary: stencil.Normal}, Fn: heatCell}
	lifeSt := stencil.Stencil[int64]{Params: stencil.Params[int64]{Radius: 1, Boundary: stencil.Wrap}, Fn: lifeCell}
	out := []metric{
		{Name: "stencil.heat-sweep.vs_raw", Unit: "ratio", Samples: e.rounds, Value: e.ratio(
			func() { heatSt.Sweep(nil, heatDst, heat) },
			func() { heatSweepRaw(heatDst.Data, heat.Data, h, w) })},
		{Name: "stencil.life-sweep.vs_raw", Unit: "ratio", Samples: e.rounds, Value: e.ratio(
			func() { lifeSt.Sweep(nil, lifeDst, life) },
			func() { lifeSweepRaw(lifeDst.Data, life.Data, h, w) })},
	}

	// One ExchangeHalos round between two ranks over a 512-wide grid.
	const rows, width, rounds = 64, 512, 200
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	part := stencil.NewPartition(rows, width, 2)
	grid := genHeatGrid(rows, width, seed)
	errc := make(chan error, 2)
	t0 := time.Now()
	for r := 0; r < 2; r++ {
		rr := part.Rows[r]
		slab, err := stencil.NewSlab(part, r, heatSt.Params, serial.F64s(), grid.Data[rr.Lo*width:rr.Hi*width])
		if err != nil {
			return nil, fmt.Errorf("stencil probe: %w", err)
		}
		c := mpi.NewComm(f, r)
		go func() {
			for i := 0; i < rounds; i++ {
				if err := slab.ExchangeHalos(c); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for r := 0; r < 2; r++ {
		if err := <-errc; err != nil {
			return nil, fmt.Errorf("stencil probe: exchange: %w", err)
		}
	}
	us := float64(time.Since(t0)) / float64(time.Microsecond) / rounds
	out = append(out,
		metric{Name: "stencil.exchange_us", Unit: "us", Value: us, Samples: rounds},
		metric{Name: "stencil.halo_bytes_per_sweep", Unit: "bytes", Value: float64(f.Stats().HaloBytes) / rounds, Samples: rounds})
	return out, nil
}

func schedProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	const n, grain = 1 << 16, 256
	leaves := float64(n / grain)
	p2 := sched.NewPool(2)
	defer p2.Close()
	p1 := sched.NewPool(1)
	defer p1.Close()
	pfor := e.perOp(func() { p2.ParallelFor(n, grain, func(_, _, _ int) {}) })
	reduce := e.perOp(func() {
		sinkI64 = sched.ParallelReduce(p2, n, grain, int64(0),
			func(lo, hi int) int64 { return int64(hi - lo) },
			func(a, b int64) int64 { return a + b })
	})
	// A fixed compute-bound body of about 4 ms on one thread, so that waking
	// the second worker (tens of microseconds here) is not what is timed.
	// Each worker adds into its own cache line.
	var partial [2][8]float64
	body := func(w, lo, hi int) {
		acc := 0.0
		for i := lo; i < hi; i++ {
			x := float64(i)
			for k := 0; k < 16; k++ {
				x = math.Sqrt(x + float64(k))
			}
			acc += x
		}
		partial[w][0] += acc
	}
	speedup := e.ratio(
		func() { p1.ParallelFor(n, grain, body) },
		func() { p2.ParallelFor(n, grain, body) })
	sinkF64 = partial[0][0] + partial[1][0]
	return []metric{
		{Name: "sched.pfor_ns_per_leaf", Unit: "ns", Value: pfor / leaves, Samples: e.rounds},
		{Name: "sched.reduce_ns_per_leaf", Unit: "ns", Value: reduce / leaves, Samples: e.rounds},
		{Name: "sched.pfor_speedup_2w", Unit: "ratio", Value: speedup, Samples: e.rounds},
	}, nil
}

// Trivial distributed skeleton kernels: what is left when the kernel costs
// nothing is the skeleton's fixed scatter + invoke + gather cost.
var (
	probeMapReduce = core.NewMapReduce("perf.mapreduce", serial.I64s(), serial.Unit(), serial.I64C(),
		func(_ *cluster.Node, xs []int64, _ struct{}) (int64, error) {
			var acc int64
			for _, v := range xs {
				acc += v
			}
			return acc, nil
		},
		func(a, b int64) int64 { return a + b })
	probeBuildArray = core.NewBuildArray("perf.buildarray", serial.I64s(), serial.Unit(), serial.I64s(),
		func(_ *cluster.Node, xs []int64, _ struct{}) ([]int64, error) { return xs, nil })
)

// twoByOne is the probes' cluster: 2 nodes x 1 core, plain fabric.
func twoByOne() cluster.Config { return cluster.Config{Nodes: 2, CoresPerNode: 1} }

func lossless() *mpi.ReliableConfig { return &mpi.ReliableConfig{AckTimeout: time.Second} }

// inSession times n calls of op inside one session, in microseconds per call.
func inSession(cfg cluster.Config, n int, op func(s *cluster.Session) error) (float64, error) {
	var us float64
	_, err := cluster.Run(cfg, func(s *cluster.Session) error {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(s); err != nil {
				return err
			}
		}
		us = float64(time.Since(t0)) / float64(time.Microsecond) / float64(n)
		return nil
	})
	return us, err
}

func coreProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	n := 50 * e.rounds
	src := core.SliceSource(probeInts[:64])
	mr, err := inSession(twoByOne(), n, func(s *cluster.Session) error {
		_, err := probeMapReduce.Run(s, src, struct{}{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core probe: mapreduce: %w", err)
	}
	ba, err := inSession(twoByOne(), n, func(s *cluster.Session) error {
		_, err := probeBuildArray.Run(s, src, struct{}{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core probe: buildarray: %w", err)
	}
	return []metric{
		{Name: "core.mapreduce_fixed_us", Unit: "us", Value: mr, Samples: n},
		{Name: "core.buildarray_fixed_us", Unit: "us", Value: ba, Samples: n},
	}, nil
}

const mib = 1 << 20

func serialProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	xs := make([]float32, mib/4)
	for i := range xs {
		xs[i] = float32(i)
	}
	enc := serial.Marshal(serial.F32s(), xs)
	raw := serial.Raw(xs)
	var derr error
	perByte := func(f func()) float64 { return e.perOp(f) / mib }
	out := []metric{
		{Name: "serial.f32s_encode_ns_per_byte", Unit: "ns/byte", Samples: e.rounds,
			Value: perByte(func() { enc = serial.Marshal(serial.F32s(), xs) })},
		{Name: "serial.f32s_decode_ns_per_byte", Unit: "ns/byte", Samples: e.rounds,
			Value: perByte(func() {
				if _, err := serial.Unmarshal(serial.F32s(), enc); err != nil {
					derr = err
				}
			})},
		{Name: "serial.raw_encode_ns_per_byte", Unit: "ns/byte", Samples: e.rounds,
			Value: perByte(func() { raw = serial.Raw(xs) })},
		{Name: "serial.raw_decode_ns_per_byte", Unit: "ns/byte", Samples: e.rounds,
			Value: perByte(func() {
				if _, err := serial.RawView[float32](raw); err != nil {
					derr = err
				}
			})},
		{Name: "serial.marshal_allocs_per_msg", Unit: "count", Samples: 64,
			Value: allocsPerOp(func() { enc = serial.Marshal(serial.F32s(), xs[:256]) }, 64)},
	}
	if derr != nil {
		return nil, fmt.Errorf("serial probe: %w", derr)
	}
	return out, nil
}

func transportProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	small, big := make([]byte, 64), make([]byte, mib)
	var perr error
	hop := func(send func(dst, tag int, p []byte) error, p []byte) func() {
		return func() {
			if err := send(1, 1, p); err != nil {
				perr = err
			}
			if _, err := b.Recv(0, 1); err != nil {
				perr = err
			}
		}
	}
	out := []metric{
		{Name: "transport.sendrecv_ns_per_msg", Unit: "ns", Samples: e.rounds, Value: e.perOp(hop(a.Send, small))},
		{Name: "transport.copy_ns_per_byte", Unit: "ns/byte", Samples: e.rounds, Value: e.perOp(hop(a.Send, big)) / mib},
		{Name: "transport.shared_ns_per_byte", Unit: "ns/byte", Samples: e.rounds, Value: e.perOp(hop(a.SendShared, big)) / mib},
	}
	if perr != nil {
		return nil, fmt.Errorf("transport probe: %w", perr)
	}
	return out, nil
}

// pingPong bounces a 64-byte message between two ranks n times and returns
// the round-trip time in microseconds with both ranks' reliable statistics
// summed. rel == nil uses direct delivery.
func pingPong(fcfg transport.Config, rel *mpi.ReliableConfig, n int) (float64, mpi.ReliableStats, error) {
	const tag = 3
	fcfg.Ranks = 2
	f := transport.New(fcfg)
	defer f.Close()
	comm := func(rank int) *mpi.Comm {
		if rel == nil {
			return mpi.NewComm(f, rank)
		}
		return mpi.NewReliableComm(f, rank, *rel)
	}
	c0, c1 := comm(0), comm(1)
	// The echo side serves until told to stop, not for n messages: on a
	// lossy fabric the ack of the last ping can be dropped, and only a peer
	// that is still receiving acknowledges the retransmission.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	echoed := make(chan error, 1)
	go func() {
		for {
			m, err := c1.RecvCtx(ctx, 0, tag)
			if err == nil {
				err = c1.SendCtx(ctx, 0, tag, m.Payload)
			}
			if ctx.Err() != nil {
				err = nil
			}
			if err != nil || ctx.Err() != nil {
				echoed <- err
				return
			}
		}
	}()
	msg := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		err := c0.Send(1, tag, msg)
		if err == nil {
			_, err = c0.Recv(1, tag)
		}
		if err != nil {
			return 0, mpi.ReliableStats{}, err
		}
	}
	us := float64(time.Since(t0)) / float64(time.Microsecond) / float64(n)
	stop()
	if err := <-echoed; err != nil {
		return 0, mpi.ReliableStats{}, err
	}
	st0, st1 := c0.ReliableStats(), c1.ReliableStats()
	return us, mpi.ReliableStats{
		FramesSent: st0.FramesSent + st1.FramesSent,
		Retries:    st0.Retries + st1.Retries,
		Delivered:  st0.Delivered + st1.Delivered,
	}, nil
}

// farmFrames is the message-volume gate's farm control-plane shape: 25
// batches of 8 worker heartbeats and one small result, on a 2-rank fabric.
func farmFrames(disableCoalesce bool) (transport.Stats, error) {
	const batches, beatsPerBatch, beatTag, taskTag = 25, 8, 7, 9
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	cfg := mpi.ReliableConfig{AckTimeout: time.Second, CoalesceLimit: 8, DisableCoalesce: disableCoalesce}
	worker, master := mpi.NewReliableComm(f, 0, cfg), mpi.NewReliableComm(f, 1, cfg)
	result := make([]byte, 24)
	errc := make(chan error, 1)
	go func() {
		for b := 0; b < batches; b++ {
			for i := 0; i < beatsPerBatch; i++ {
				if err := worker.SendBeat(1, beatTag, nil); err != nil {
					errc <- err
					return
				}
			}
			if err := worker.Send(1, taskTag, result); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for b := 0; b < batches; b++ {
		if _, err := master.Recv(0, taskTag); err != nil {
			return transport.Stats{}, err
		}
		for {
			_, ok, err := master.TryRecv(0, beatTag)
			if err != nil {
				return transport.Stats{}, err
			}
			if !ok {
				break
			}
		}
	}
	if err := <-errc; err != nil {
		return transport.Stats{}, err
	}
	return f.Stats(), nil
}

func mpiProbes(e probeEffort, seed uint64, _ string) ([]metric, error) {
	n := 100 * e.rounds
	direct, _, err := pingPong(transport.Config{}, nil, n)
	if err != nil {
		return nil, fmt.Errorf("mpi probe: direct ping-pong: %w", err)
	}
	reliable, rst, err := pingPong(transport.Config{}, lossless(), n)
	if err != nil {
		return nil, fmt.Errorf("mpi probe: reliable ping-pong: %w", err)
	}
	p := transport.FaultProbs{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02}
	// life-lossy's timeouts, but a retry budget of seconds, not half a
	// second: a probe that counts retries must not read a stall of the
	// host as a lost rank.
	_, lst, err := pingPong(
		transport.Config{Fault: &transport.FaultConfig{Seed: int64(seed), Default: p}},
		&mpi.ReliableConfig{AckTimeout: 500 * time.Microsecond, Retries: 600,
			MaxAckTimeout: 10 * time.Millisecond, JitterSeed: int64(seed)}, n)
	if err != nil {
		return nil, fmt.Errorf("mpi probe: lossy ping-pong: %w", err)
	}

	// Collectives on 4 ranks over 1 MiB, each round closed by a barrier so
	// the root's clock covers every rank's share.
	const ranks = 4
	rounds := 3 * e.rounds
	data := make([]byte, mib)
	parts := make([][]byte, ranks)
	for i := range parts {
		parts[i] = data[i*mib/ranks : (i+1)*mib/ranks]
	}
	collective := func(round func(c *mpi.Comm) error) (float64, error) {
		var us float64
		err := mpi.Run(transport.Config{Ranks: ranks}, func(c *mpi.Comm) error {
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				if err := round(c); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				us = float64(time.Since(t0)) / float64(time.Microsecond) / float64(rounds)
			}
			return nil
		})
		return us, err
	}
	bcast, err := collective(func(c *mpi.Comm) error {
		var in []byte
		if c.Rank() == 0 {
			in = data
		}
		_, err := c.Bcast(0, in)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mpi probe: bcast: %w", err)
	}
	scatterGather, err := collective(func(c *mpi.Comm) error {
		var in [][]byte
		if c.Rank() == 0 {
			in = parts
		}
		mine, err := c.Scatter(0, in)
		if err != nil {
			return err
		}
		_, err = c.Gather(0, mine)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mpi probe: scatter+gather: %w", err)
	}

	coal, err := farmFrames(false)
	if err != nil {
		return nil, fmt.Errorf("mpi probe: farm frames: %w", err)
	}
	legacy, err := farmFrames(true)
	if err != nil {
		return nil, fmt.Errorf("mpi probe: farm frames, coalescing off: %w", err)
	}
	return []metric{
		{Name: "mpi.direct_pingpong_us", Unit: "us", Value: direct, Samples: n},
		{Name: "mpi.reliable_pingpong_us", Unit: "us", Value: reliable, Samples: n},
		{Name: "mpi.bcast_1mib_us", Unit: "us", Value: bcast, Samples: rounds},
		{Name: "mpi.scatter_gather_1mib_us", Unit: "us", Value: scatterGather, Samples: rounds},
		{Name: "mpi.reliable_frames_per_msg", Unit: "ratio", Value: float64(rst.FramesSent) / float64(rst.Delivered), Samples: int(rst.Delivered)},
		{Name: "mpi.coalesce_saving_frac", Unit: "fraction", Value: 1 - float64(coal.Bytes)/float64(legacy.Bytes), Samples: int(legacy.Messages)},
		{Name: "mpi.lossy_retries_per_msg", Unit: "ratio", Value: float64(lst.Retries) / float64(lst.Delivered), Samples: int(lst.Delivered)},
	}, nil
}

const barrierKernel = "perf.barrier"

func init() {
	cluster.RegisterWorker(barrierKernel, func(n *cluster.Node) error { return n.Comm.Barrier() })
}

func clusterProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	var runErr error
	setup := e.perOp(func() {
		if _, err := cluster.Run(twoByOne(), func(*cluster.Session) error { return nil }); err != nil {
			runErr = err
		}
	}) / 1e3
	if runErr != nil {
		return nil, fmt.Errorf("cluster probe: empty run: %w", runErr)
	}
	n := 50 * e.rounds
	invoke, err := inSession(twoByOne(), n, func(s *cluster.Session) error {
		if err := s.Invoke(barrierKernel); err != nil {
			return err
		}
		return s.Node().Comm.Barrier()
	})
	if err != nil {
		return nil, fmt.Errorf("cluster probe: invoke: %w", err)
	}

	const tasks = 256
	payload := make([][]byte, tasks)
	for i := range payload {
		payload[i] = binary.LittleEndian.AppendUint64(nil, uint64(i))
	}
	farm := func(cfg cluster.Config) (float64, error) {
		us, err := inSession(cfg, 1, func(s *cluster.Session) error {
			res, err := s.Farm(noopKernel, payload)
			if err == nil && (len(res.Failed) > 0 || len(res.Lost) > 0) {
				err = fmt.Errorf("%d tasks failed, %d workers lost", len(res.Failed), len(res.Lost))
			}
			return err
		})
		return us / tasks, err
	}
	reliableCfg := twoByOne()
	reliableCfg.Reliable = lossless()
	farmReliable, err := farm(reliableCfg)
	if err != nil {
		return nil, fmt.Errorf("cluster probe: farm: %w", err)
	}
	farmDirect, err := farm(twoByOne())
	if err != nil {
		return nil, fmt.Errorf("cluster probe: direct farm: %w", err)
	}
	mux, err := inSession(reliableCfg, 1, func(s *cluster.Session) error { return muxRound(s, payload) })
	if err != nil {
		return nil, fmt.Errorf("cluster probe: mux: %w", err)
	}
	return []metric{
		{Name: "cluster.run_setup_us", Unit: "us", Value: setup, Samples: e.rounds},
		{Name: "cluster.invoke_us", Unit: "us", Value: invoke, Samples: n},
		{Name: "cluster.farm_us_per_task", Unit: "us", Value: farmReliable, Samples: tasks},
		{Name: "cluster.farm_direct_us_per_task", Unit: "us", Value: farmDirect, Samples: tasks},
		{Name: "cluster.mux_us_per_task", Unit: "us", Value: mux / tasks, Samples: tasks},
	}, nil
}

// muxRound pushes every payload through OpenMux/Assign/Poll as no-op tasks.
func muxRound(s *cluster.Session, payload [][]byte) (err error) {
	mux, err := s.OpenMux(cluster.MuxOptions{})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := mux.Close(); err == nil {
			err = cerr
		}
	}()
	sent, done := 0, 0
	for done < len(payload) {
		for _, w := range mux.Idle() {
			if sent == len(payload) {
				break
			}
			a := cluster.MuxAssignment{Job: "probe", Kernel: noopKernel, Task: sent, Payload: payload[sent]}
			if err := mux.Assign(context.Background(), w, a); err != nil {
				return err
			}
			sent++
		}
		ev, ok, err := mux.Poll()
		switch {
		case err != nil:
			return err
		case !ok:
			runtime.Gosched()
		case ev.Kind == cluster.MuxTaskDone && ev.OK:
			done++
		default:
			return fmt.Errorf("unexpected mux event %+v", ev)
		}
	}
	return nil
}

func checkpointProbes(e probeEffort, _ uint64, tmp string) (out []metric, err error) {
	path := filepath.Join(tmp, fmt.Sprintf("probe-%d.wal", os.Getpid()))
	defer func() {
		if rerr := os.Remove(path); err == nil && !errors.Is(rerr, os.ErrNotExist) {
			err = rerr
		}
	}()
	wal, err := checkpoint.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	rec := checkpoint.Record{Job: "probe", Kind: checkpoint.KindResult, Payload: make([]byte, 64)}
	var aerr error
	appendUS := e.perOp(func() {
		rec.Task++
		if err := wal.Append(rec); err != nil {
			aerr = err
		}
	}) / 1e3
	records := wal.Records()
	if err := wal.Close(); err != nil {
		return nil, err
	}
	if aerr != nil {
		return nil, fmt.Errorf("checkpoint probe: append: %w", aerr)
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	wal, err = checkpoint.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	loaded, err := wal.LoadAll()
	loadUS := float64(time.Since(t0)) / float64(time.Microsecond) / float64(records)
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if len(loaded) != records {
		return nil, fmt.Errorf("checkpoint probe: loaded %d records, appended %d", len(loaded), records)
	}
	mem := checkpoint.NewMem()
	memNS := e.perOp(func() {
		rec.Task++
		if err := mem.Append(rec); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return nil, fmt.Errorf("checkpoint probe: mem append: %w", aerr)
	}
	return []metric{
		{Name: "checkpoint.wal_append_us", Unit: "us", Value: appendUS, Samples: e.rounds},
		{Name: "checkpoint.wal_load_us_per_record", Unit: "us", Value: loadUS, Samples: records},
		{Name: "checkpoint.wal_bytes_per_record", Unit: "bytes", Value: float64(info.Size()) / float64(records), Samples: records},
		{Name: "checkpoint.mem_append_ns", Unit: "ns", Value: memNS, Samples: e.rounds},
	}, nil
}

func perfmodelProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	// A fixed calibration: the probe times the planner, not the host.
	cal := perfmodel.Calibration{
		SGEMMMac:   [3]float64{1e-9, 1e-9, 1e-9},
		SerPerByte: 1e-9, AllocPerByte: 2e-10, AddF32: 1e-9,
	}
	pl := perfmodel.NewPlanner(cal, perfmodel.VirtualMachine(), 2)
	w := perfmodel.Workload{
		Name: "probe", Elems: 384 * 384, BytesPerElem: 8, BytesPerResult: 4,
		UnitsPerElem: 384, Class: perfmodel.CostSGEMM, Reduce: perfmodel.ReduceGather, Pointerless: true,
	}
	var nodes int
	us := e.perOp(func() { nodes += pl.Plan(w).Nodes }) / 1e3
	if nodes == 0 {
		return nil, errors.New("perfmodel probe: planner returned a plan with no nodes")
	}
	return []metric{{Name: "perfmodel.plan_us", Unit: "us", Value: us, Samples: e.rounds}}, nil
}

func traceProbes(e probeEffort, _ uint64, _ string) ([]metric, error) {
	// A tracer keeps every event, so each batch gets a fresh one.
	const batch = 4096
	ts := make([]float64, e.rounds)
	for i := range ts {
		tr := trace.New()
		ts[i] = timeBatch(func() { tr.Begin(0, "probe")() }, batch)
	}
	return []metric{{Name: "trace.span_ns", Unit: "ns", Value: median(ts), Samples: e.rounds}}, nil
}
