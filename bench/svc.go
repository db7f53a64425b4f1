package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/jobs"
	"triolet/internal/mpi"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// The job-service workload. One segment hosts a jobs.Service on a fresh
// registry and a fresh 3-node cluster and drives it with closed-loop clients:
// each submits a job, waits for it, fetches its results, then submits the
// next. A closed loop is the right shape for callers that each wait for a
// reply; the load is the client count, not a rate.
//
// The timed workload keeps the registry in memory (checkpoint.Mem). On a WAL
// every task costs one fsync, and this host's fsync latency moves by half
// over tens of minutes (job p50 read 16.5, 19.6 and 25 ms in three periods of
// one afternoon), which no regression bound can absorb. The WAL-backed
// service is measured per layer instead: the jobs.* probes run this same
// segment on a checkpoint.WAL, beside checkpoint.wal_append_us.

const (
	svcClients      = 2
	svcTasksPerJob  = 16
	svcJobsPerRep   = 25 // per client, per segment, at full effort
	svcWarmJobs     = 8  // per client, per warm-up segment
	svcWorkers      = 2
	svcServeTimeout = 5 * time.Second
)

type svcInst struct {
	seed      uint64
	seq       int
	perClient int
	// newStore opens a segment's registry and returns its clean-up.
	newStore func(seq int) (checkpoint.Store, func() error, error)
	// kernelMS is hashTask's time per call, calibrated by calling it
	// directly: a farm kernel may not read the clock itself.
	kernelMS float64
}

func setupSvc(seed uint64, e env) (instance, error) {
	return newSvcInst(seed, e.svcJobs, func(int) (checkpoint.Store, func() error, error) {
		return checkpoint.NewMem(), func() error { return nil }, nil
	})
}

// newSvcOnWAL is the same workload with each segment's registry on a fresh
// WAL file in dir, removed when the segment ends.
func newSvcOnWAL(seed uint64, perClient int, dir string) (*svcInst, error) {
	return newSvcInst(seed, perClient, func(seq int) (checkpoint.Store, func() error, error) {
		path := filepath.Join(dir, fmt.Sprintf("svc-%d-%d.wal", os.Getpid(), seq))
		wal, err := checkpoint.OpenWAL(path)
		if err != nil {
			return nil, nil, err
		}
		return wal, func() error { return errors.Join(wal.Close(), os.Remove(path)) }, nil
	})
}

func newSvcInst(seed uint64, perClient int, newStore func(int) (checkpoint.Store, func() error, error)) (*svcInst, error) {
	kernelMS, err := calibrateHash(seed)
	if err != nil {
		return nil, err
	}
	return &svcInst{seed: seed, perClient: perClient, newStore: newStore, kernelMS: kernelMS}, nil
}

// calibrateHash times hashTask in-process: the median of 64 calls.
func calibrateHash(seed uint64) (float64, error) {
	task := binary.LittleEndian.AppendUint64(nil, seed)
	times := make([]float64, 64)
	for i := range times {
		t0 := time.Now()
		if _, err := hashTask(task); err != nil {
			return 0, err
		}
		times[i] = msSince(t0)
	}
	return median(times), nil
}

// svcJobs generates one segment's task payloads: [client][job][task].
func svcJobs(seed uint64, seq, perClient int) [][][][]byte {
	x := newLCG(seed ^ uint64(seq+1)*0x9e3779b97f4a7c15)
	out := make([][][][]byte, svcClients)
	for c := range out {
		out[c] = make([][][]byte, perClient)
		for j := range out[c] {
			tasks := make([][]byte, svcTasksPerJob)
			for t := range tasks {
				tasks[t] = binary.LittleEndian.AppendUint64(nil, x.next())
			}
			out[c][j] = tasks
		}
	}
	return out
}

// segment is one service run's observations.
type segment struct {
	latMS    []float64 // submit→done per job
	results  [][][]byte
	payloads [][][]byte // the jobs in the order of results
	wall     time.Duration
	stats    transport.Stats
	alloc    uint64
	failures []string
}

// runSegment hosts the service on store and runs the clients to completion.
func runSegment(sc *scope, store checkpoint.Store, seed uint64, work [][][][]byte) (seg segment, err error) {
	svc, err := jobs.NewService(jobs.Config{Store: store, Seed: int64(seed)})
	if err != nil {
		return seg, err
	}
	cfg := cluster.Config{
		Nodes: 1 + svcWorkers, CoresPerNode: 1,
		Reliable: &mpi.ReliableConfig{AckTimeout: time.Second},
	}
	if sc.traced() {
		cfg.Tracer = trace.New()
	}

	runtime.GC()
	a0 := totalAlloc()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type served struct {
		st  transport.Stats
		err error
	}
	done := make(chan served, 1)
	root, endRun := sc.begin(0, "cluster.Run", "cluster")
	go func() {
		st, err := cluster.RunCtx(ctx, cfg, func(s *cluster.Session) error {
			_, end := sc.begin(root, "Service.Serve", "jobs")
			defer end()
			return svc.Serve(ctx, s)
		})
		endRun()
		done <- served{st, err}
	}()
	// stop drains the service and collects the session's outcome.
	stop := func() (transport.Stats, error) {
		svc.Stop()
		select {
		case s := <-done:
			return s.st, s.err
		case <-time.After(svcServeTimeout):
			cancel()
			s := <-done
			return s.st, fmt.Errorf("service did not drain within %v (then: %v)", svcServeTimeout, s.err)
		}
	}

	for deadline := time.Now().Add(svcServeTimeout); !svc.Metrics().Serving; {
		if time.Now().After(deadline) {
			_, serr := stop()
			return seg, fmt.Errorf("service not serving after %v (%v)", svcServeTimeout, serr)
		}
		time.Sleep(200 * time.Microsecond)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range work {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j, tasks := range work[c] {
				name := fmt.Sprintf("c%d-j%d", c, j)
				lat, res, fail := runJob(sc, svc, name, tasks)
				mu.Lock()
				seg.latMS = append(seg.latMS, lat)
				seg.results = append(seg.results, res)
				seg.payloads = append(seg.payloads, tasks)
				if fail != "" {
					seg.failures = append(seg.failures, name+": "+fail)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	seg.wall = time.Since(t0)
	seg.stats, err = stop()
	seg.alloc = totalAlloc() - a0
	if err != nil && !errors.Is(err, context.Canceled) {
		return seg, err
	}
	return seg, nil
}

// runJob is one closed-loop step: submit, wait, fetch. It returns the
// submit→done latency, the results, and why the job failed, if it did.
func runJob(sc *scope, svc *jobs.Service, name string, tasks [][]byte) (latMS float64, res [][]byte, fail string) {
	root, endJob := sc.begin(0, "job", "client")
	defer endJob()
	t0 := time.Now()
	_, endSubmit := sc.begin(root, "Service.Submit", "jobs")
	err := svc.Submit(jobs.Spec{Name: name, Kernel: hashKernel, Tasks: tasks})
	endSubmit()
	if err != nil {
		return msSince(t0), nil, "submit: " + err.Error()
	}
	_, endWait := sc.begin(root, "Service.Wait", "jobs")
	ch, err := svc.Wait(name)
	if err == nil {
		<-ch
	}
	endWait()
	latMS = msSince(t0)
	if err != nil {
		return latMS, nil, "wait: " + err.Error()
	}
	if st, ok := svc.Job(name); !ok || st.State != jobs.Done.String() {
		return latMS, nil, fmt.Sprintf("state %q, want done", st.State)
	}
	res, _, err = svc.Result(name)
	if err != nil {
		return latMS, nil, "result: " + err.Error()
	}
	return latMS, res, ""
}

// checkSegment recomputes every task in-process and compares byte for byte.
// That recomputation is the workload's twin, so its time per job is returned.
func checkSegment(seg *segment) (twinMS float64, err error) {
	t0 := time.Now()
	for j, tasks := range seg.payloads {
		res := seg.results[j]
		if res == nil {
			continue // already counted as failed
		}
		for t, task := range tasks {
			want, err := hashTask(task)
			if err != nil {
				return 0, err
			}
			if t >= len(res) || !bytes.Equal(res[t], want) {
				seg.failures = append(seg.failures, fmt.Sprintf("job %d task %d: result differs from in-process hash", j, t))
				break
			}
		}
	}
	return msSince(t0) / float64(len(seg.payloads)), nil
}

func (in *svcInst) rep(sc *scope) (rep, error) {
	r, _, err := in.timedSegment(sc, in.perClient)
	return r, err
}

func (in *svcInst) warm() (rep, error) {
	r, _, err := in.timedSegment(nil, min(in.perClient, svcWarmJobs))
	return r, err
}

// timedSegment runs and checks one segment of perClient jobs per client and
// also returns its wall time from first submit to last completion.
func (in *svcInst) timedSegment(sc *scope, perClient int) (rep, time.Duration, error) {
	in.seq++
	work := svcJobs(in.seed, in.seq, perClient)
	store, closeStore, err := in.newStore(in.seq)
	if err != nil {
		return rep{}, 0, fmt.Errorf("svc-closed: %w", err)
	}
	seg, err := runSegment(sc, store, in.seed, work)
	if cerr := closeStore(); err == nil {
		err = cerr
	}
	if err != nil {
		return rep{}, 0, fmt.Errorf("svc-closed: %w", err)
	}
	twinMS, err := checkSegment(&seg)
	if err != nil {
		return rep{}, 0, fmt.Errorf("svc-closed: %w", err)
	}
	tasks := float64(len(seg.latMS) * svcTasksPerJob)
	wallMS := float64(seg.wall) / float64(time.Millisecond)
	return rep{
		solveMS: seg.latMS, twinMS: twinMS, stats: seg.stats, alloc: seg.alloc,
		failures: seg.failures,
		busyFrac: tasks * in.kernelMS / (wallMS * svcWorkers),
	}, seg.wall, nil
}

func (in *svcInst) attribute(*scope, rep, int) (attribution, error) {
	// Payloads are raw 8-byte slices and the fabric has no delay model, so
	// serial and wire are zero; kernel is the calibrated hash time per job.
	return attribution{kernelMS: svcTasksPerJob * in.kernelMS}, nil
}
