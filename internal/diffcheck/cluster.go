package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/iter"
	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// The Par executor distributes the pipeline as a farm job: one task per
// fixed-offset chunk of the outer domain (or a single whole-domain task
// for unsplittable pipelines). Each task carries the full pipeline
// description plus its chunk range, so any node — or the master fallback,
// or a resumed second session — rebuilds the same iterator and computes
// the same chunk observation. The master merges task results in chunk
// order, so which worker computed which chunk can never change the answer.

const chunkKernel = "diffcheck.chunk"

// resumeTaskDelay is the per-task compute delay of a Resume run, and so
// the longest delay a well-formed task can carry.
const resumeTaskDelay = 2 * time.Millisecond

// chunkTask is one farm task: a pipeline, the engine to observe it with, a
// window of its outer domain, and an optional compute delay (used by Resume
// runs to widen the kill window).
type chunkTask struct {
	p     Pipeline
	eng   Engine
	whole bool
	r     domain.Range
	delay time.Duration
}

func encodeChunkTask(t chunkTask) []byte {
	w := serial.NewWriter(64 + 8*len(t.p.Seed))
	w.U8(uint8(t.eng))
	w.Bool(t.whole)
	w.Int(t.r.Lo)
	w.Int(t.r.Hi)
	w.Int(int(t.delay / time.Millisecond))
	w.I64Slice(t.p.Seed)
	w.Int(len(t.p.Ops))
	for _, op := range t.p.Ops {
		w.U8(op.Kind)
		w.U8(op.A)
		w.U8(op.B)
	}
	return w.Bytes()
}

func decodeChunkTask(b []byte) (chunkTask, error) {
	r := serial.NewReader(b)
	var t chunkTask
	t.eng = Engine(r.U8())
	whole := r.U8()
	t.whole = whole == 1
	t.r.Lo = r.Int()
	t.r.Hi = r.Int()
	ms := r.Int()
	t.delay = time.Duration(ms) * time.Millisecond
	t.p.Seed = r.I64Slice()
	n := r.Int()
	if r.Err() == nil && (n < 0 || n > r.Remaining()/3) {
		return t, fmt.Errorf("diffcheck: task op count %d exceeds payload", n)
	}
	if r.Err() == nil {
		t.p.Ops = make([]iter.PipeOp, n)
		for i := range t.p.Ops {
			t.p.Ops[i] = iter.PipeOp{Kind: r.U8(), A: r.U8(), B: r.U8()}
		}
	}
	if err := r.Err(); err != nil || r.Remaining() != 0 {
		return t, fmt.Errorf("diffcheck: malformed chunk task: %d bytes unread (%v)", r.Remaining(), err)
	}
	// The kernel sleeps t.delay and hands t.r to iter.Split, which panics on
	// a window outside the domain: nothing here is taken on trust, and what
	// is accepted re-encodes to the bytes it came from.
	if t.eng > Block || whole > 1 {
		return t, fmt.Errorf("diffcheck: malformed chunk task: engine %d, whole %d", t.eng, whole)
	}
	if ms < 0 || ms > int(resumeTaskDelay/time.Millisecond) {
		return t, fmt.Errorf("diffcheck: malformed chunk task: delay %dms outside [0, %v]", ms, resumeTaskDelay)
	}
	if !t.whole {
		it := t.p.Build()
		if n, _ := it.OuterLen(); !it.CanSplit() || t.r.Lo < 0 || t.r.Hi > n || t.r.Lo > t.r.Hi {
			return t, fmt.Errorf("diffcheck: malformed chunk task: range %v outside the pipeline's outer domain of %d", t.r, n)
		}
	}
	return t, nil
}

func encodeObs(o Obs) []byte {
	w := serial.NewWriter(64 + 8*len(o.Elems))
	w.I64Slice(o.Elems)
	w.U64(uint64(o.Count))
	w.U64(uint64(o.Sum))
	w.I64Slice(o.Hist)
	w.F64(o.FSum)
	w.F64(o.FAbs)
	return w.Bytes()
}

func decodeObs(b []byte) (Obs, error) {
	r := serial.NewReader(b)
	o := Obs{
		Elems: r.I64Slice(),
		Count: int64(r.U64()),
		Sum:   int64(r.U64()),
		Hist:  r.I64Slice(),
		FSum:  r.F64(),
		FAbs:  r.F64(),
	}
	if err := r.Err(); err != nil {
		return o, fmt.Errorf("diffcheck: malformed chunk observation: %w", err)
	}
	return o, nil
}

func init() {
	cluster.RegisterFarm(chunkKernel, func(n *cluster.Node, task []byte) ([]byte, error) {
		t, err := decodeChunkTask(task)
		if err != nil {
			return nil, err
		}
		if t.delay > 0 {
			time.Sleep(t.delay)
		}
		it := t.p.Build()
		if !t.whole {
			it = iter.Split(it, t.r)
		}
		return encodeObs(observe(it, t.eng)), nil
	})
}

// lossyProfile is the oracle's faulty-fabric configuration: ~2% each of
// drops, duplicates, and corruptions on every link, deterministically
// seeded.
func lossyProfile(seed int64) *transport.FaultConfig {
	return &transport.FaultConfig{
		Seed: seed,
		Default: transport.FaultProbs{
			Drop:      0.02,
			Duplicate: 0.02,
			Corrupt:   0.02,
		},
	}
}

// fastRetry keeps reliable-mode timeouts short so lossy gate runs converge
// in milliseconds.
func fastRetry() *mpi.ReliableConfig {
	return &mpi.ReliableConfig{
		AckTimeout:    500 * time.Microsecond,
		Retries:       100,
		MaxAckTimeout: 50 * time.Millisecond,
	}
}

// fabricConfig is a virtual cluster of nodes over the given fabric: a
// lossy one injects lossyProfile's faults and rides the given retry ladder.
func fabricConfig(nodes int, fabric Fabric, opt Options, ladder *mpi.ReliableConfig) cluster.Config {
	cfg := cluster.Config{Nodes: nodes, CoresPerNode: opt.cores()}
	if fabric == Lossy {
		cfg.Fault = lossyProfile(997)
		cfg.Reliable = ladder
	}
	return cfg
}

// parTasks cuts the pipeline into farm task payloads.
func parTasks(p Pipeline, eng Engine, opt Options, delay time.Duration) [][]byte {
	chunks, ok := chunkRanges(p.Build(), opt.chunk())
	if !ok {
		return [][]byte{encodeChunkTask(chunkTask{p: p, eng: eng, whole: true, delay: delay})}
	}
	tasks := make([][]byte, len(chunks))
	for i, r := range chunks {
		tasks[i] = encodeChunkTask(chunkTask{p: p, eng: eng, r: r, delay: delay})
	}
	return tasks
}

// decodeParts decodes the per-task observations, in task (== chunk) order.
func decodeParts(fr *cluster.FarmResult) ([]Obs, error) {
	if len(fr.Failed) > 0 {
		return nil, fmt.Errorf("diffcheck: %d tasks quarantined (first: task %d: %s)",
			len(fr.Failed), fr.Failed[0].Task, fr.Failed[0].Err)
	}
	parts := make([]Obs, len(fr.Results))
	for i, b := range fr.Results {
		o, err := decodeObs(b)
		if err != nil {
			return nil, fmt.Errorf("diffcheck: task %d: %w", i, err)
		}
		parts[i] = o
	}
	return parts, nil
}

// parParts executes the pipeline on a virtual cluster and returns the
// per-chunk observations; Run merges them.
func parParts(p Pipeline, m Mode, opt Options) ([]Obs, error) {
	// A Resume run's small per-task delay gives the killer a window; resumed
	// results must be byte-identical regardless of where the kill lands.
	var delay time.Duration
	if m.Lifecycle == Resume {
		delay = resumeTaskDelay
	}
	tasks := parTasks(p, m.Engine, opt, delay)
	var fr *cluster.FarmResult
	farm := func(s *cluster.Session, fo cluster.FarmOptions) error {
		var err error
		fr, err = s.FarmOpts(chunkKernel, tasks, fo)
		return err
	}
	if err := runLifecycle(fabricConfig(m.nodes(), m.Fabric, opt, fastRetry()), m.Lifecycle, 1, farm); err != nil {
		return nil, fmt.Errorf("diffcheck: %s: %w", m, err)
	}
	return decodeParts(fr)
}

// runLifecycle runs one farm job in a session of cfg: once for a Fresh
// lifecycle, and for Resume in two lives over a WAL in a temp dir. The
// first life is killed (context cancel — the in-process stand-in for kill
// -9) once the WAL holds kill records, and a brand-new session resumes from
// the reopened WAL. job runs the work with the farm options it must pass
// to every farm call. If the job outruns the killer (tiny jobs), its
// complete fresh run stands as the observation; either way the oracle
// demands the result be bit-identical to a fresh run's.
func runLifecycle(cfg cluster.Config, lc Lifecycle, kill int, job func(*cluster.Session, cluster.FarmOptions) error) error {
	if lc != Resume {
		_, err := cluster.Run(cfg, func(s *cluster.Session) error { return job(s, cluster.FarmOptions{}) })
		return err
	}
	dir, err := os.MkdirTemp("", "diffcheck-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "job.wal")
	wal, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for ctx.Err() == nil {
			if wal.Records() >= kill {
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	_, firstErr := cluster.RunCtx(ctx, cfg, func(s *cluster.Session) error {
		return job(s, cluster.FarmOptions{Checkpoint: wal, Job: "diffcheck"})
	})
	cancel()
	<-killerDone
	if err := wal.Close(); err != nil {
		return err
	}
	if firstErr == nil {
		return nil
	}
	if !errors.Is(firstErr, context.Canceled) {
		return fmt.Errorf("first life: %w", firstErr)
	}

	wal2, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		return fmt.Errorf("reopen WAL: %w", err)
	}
	defer wal2.Close()
	_, err = cluster.Run(cfg, func(s *cluster.Session) error {
		return job(s, cluster.FarmOptions{Checkpoint: wal2, Job: "diffcheck"})
	})
	if err != nil {
		return fmt.Errorf("second life: %w", err)
	}
	return nil
}
