package main

import (
	"fmt"
	"time"
)

// effort sizes a run. The full and quick settings differ only in how much
// is repeated, never in problem sizes or in which checks run.
type effort struct {
	setups  int // set-ups per workload; setup_s is their median
	warmups int // warm-up solves per set-up, untimed but counted in setup_s
	// minSolves is how many untraced solves a workload gets however long
	// they take: a median of fewer is not worth reporting.
	minSolves int
	// seconds is the untraced pass's timed budget per workload;
	// tracedSeconds the traced pass's.
	seconds, tracedSeconds float64
	svcJobs                int // jobs per client per svc-closed segment
	kernelRuns             int // runs behind the attribution's kernel probe
	probe                  probeEffort
}

func fullEffort(seconds float64) effort {
	return effort{
		setups: 5, warmups: 2, minSolves: 30,
		seconds: seconds, tracedSeconds: seconds / 4,
		svcJobs: svcJobsPerRep, kernelRuns: 3,
		probe: probeEffort{passes: 3, rounds: 3, batch: 4 * time.Millisecond, svcJobs: 40},
	}
}

func quickEffort() effort {
	return effort{
		setups: 1, warmups: 0, minSolves: 1,
		svcJobs: 4, kernelRuns: 1,
		probe: probeEffort{passes: 1, rounds: 1, batch: 200 * time.Microsecond, svcJobs: 3},
	}
}

// tally accumulates one pass's reps of one workload.
type tally struct {
	solveMS  []float64 // every solve
	repMS    []float64 // per rep: median solve
	vsRef    []float64 // per rep: median solve ÷ twin
	bytes    int64
	msgs     int64
	alloc    uint64
	failures []string
	spent    time.Duration // wall time the reps took
	last     rep           // the last rep, for the attribution probes
}

func (t *tally) add(r rep, took time.Duration) {
	t.solveMS = append(t.solveMS, r.solveMS...)
	ms := median(r.solveMS)
	t.repMS = append(t.repMS, ms)
	t.vsRef = append(t.vsRef, ms/r.twinMS)
	t.bytes += r.stats.Bytes
	t.msgs += r.stats.Messages
	t.alloc += r.alloc
	t.failures = append(t.failures, r.failures...)
	t.spent += took
	t.last = r
}

func (t *tally) solves() int { return len(t.solveMS) }

// runner drives one workload through set-up, the untraced pass and the
// traced pass.
type runner struct {
	w      workload
	eff    effort
	seed   uint64
	rec    *recorder
	inst   instance
	setupS []float64
	e2e    tally // untraced pass: the end-to-end metrics come from here only
	// The traced pass. A run of one workload has no untraced pass to
	// compare with, so there (alternate) each traced rep follows an untraced
	// one, kept in plain; the full run compares traced with e2e.
	alternate     bool
	plain, traced tally
	attr          attribution
	solveID       int
}

// setUp sets the workload up eff.setups times, keeping the last instance.
// One set-up is input generation from the seed, the reference output, the
// WAL directory where there is one, and the warm-up solves.
func (r *runner) setUp() error {
	for i := 0; i < r.eff.setups; i++ {
		t0 := time.Now()
		inst, err := r.w.setup(r.seed, env{svcJobs: r.eff.svcJobs})
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", r.w.name, err)
		}
		r.inst = inst
		for j := 0; j < r.eff.warmups; j++ {
			rp, err := inst.warm()
			if err != nil {
				return fmt.Errorf("%s: warm-up: %w", r.w.name, err)
			}
			if len(rp.failures) > 0 {
				return fmt.Errorf("%s: warm-up solve failed: %s", r.w.name, rp.failures[0])
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	return nil
}

func (r *runner) scope(traced bool) *scope {
	r.solveID++
	if !traced {
		return nil
	}
	return &scope{rec: r.rec, workload: r.w.name, solve: r.solveID}
}

func (r *runner) oneRep(t *tally, traced bool) error {
	t0 := time.Now()
	rp, err := r.inst.rep(r.scope(traced))
	if err != nil {
		return err
	}
	t.add(rp, time.Since(t0))
	return nil
}

// untracedRep runs one rep of the untraced pass.
func (r *runner) untracedRep() error { return r.oneRep(&r.e2e, false) }

// untracedDone reports whether the untraced pass has used its budget.
func (r *runner) untracedDone() bool {
	return r.e2e.solves() >= r.eff.minSolves && r.e2e.spent.Seconds() >= r.eff.seconds
}

// tracedRep runs one rep of the traced pass.
func (r *runner) tracedRep() error {
	if r.alternate {
		if err := r.oneRep(&r.plain, false); err != nil {
			return err
		}
	}
	return r.oneRep(&r.traced, true)
}

// untraced is the pass the traced one is compared with.
func (r *runner) untraced() *tally {
	if r.alternate {
		return &r.plain
	}
	return &r.e2e
}

func (r *runner) tracedDone() bool {
	return len(r.traced.vsRef) >= 1 && (r.plain.spent+r.traced.spent).Seconds() >= r.eff.tracedSeconds
}

// attribute runs the decomposition probes against the last traced rep.
func (r *runner) attribute() error {
	sc := &scope{rec: r.rec, workload: r.w.name, solve: 0}
	a, err := r.inst.attribute(sc, r.traced.last, r.eff.kernelRuns)
	r.attr = a
	return err
}

// endToEnd reports the untraced pass as the end-to-end metrics.
func (r *runner) endToEnd() []metric {
	t := &r.e2e
	n := t.solves()
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(r.setupS), Samples: len(r.setupS)},
		{Name: "solve_ms", Unit: "ms", Value: median(t.solveMS), Samples: n},
		{Name: "vs_ref", Unit: "ratio", Value: median(t.vsRef), Samples: len(t.vsRef)},
		{Name: "alloc_mb", Unit: "MB/solve", Value: float64(t.alloc) / 1e6 / float64(n), Samples: n},
	}
}

// perWorkloadLayers reports the traced pass: traffic per solve, tracing
// overhead, and the attribution of one traced solve's time.
func (r *runner) perWorkloadLayers() []metric {
	plain := r.untraced()
	all := r.traced.solves() + plain.solves()
	bytes := float64(r.traced.bytes+plain.bytes) / float64(all)
	msgs := float64(r.traced.msgs+plain.msgs) / float64(all)
	solve := median(r.traced.solveMS)
	n := r.traced.solves()
	a := r.attr
	return []metric{
		{Name: "wire.bytes_per_solve", Unit: "bytes", Value: bytes, Samples: all},
		{Name: "wire.msgs_per_solve", Unit: "count", Value: msgs, Samples: all},
		{Name: "trace.overhead_frac", Unit: "fraction", Value: solve/median(plain.solveMS) - 1, Samples: n},
		{Name: "attr.kernel_frac", Unit: "fraction", Value: a.kernelMS / solve, Samples: n},
		{Name: "attr.serial_frac", Unit: "fraction", Value: a.serialMS / solve, Samples: n},
		{Name: "attr.wire_frac", Unit: "fraction", Value: a.wireMS / solve, Samples: n},
		{Name: "attr.residual_frac", Unit: "fraction", Value: 1 - (a.kernelMS+a.serialMS+a.wireMS)/solve, Samples: n},
	}
}

// failures lists every failed solve of every pass.
func (r *runner) failures() []string {
	var out []string
	for _, t := range []*tally{&r.e2e, &r.plain, &r.traced} {
		out = append(out, t.failures...)
	}
	return out
}

func (r *runner) attempted() int {
	return r.e2e.solves() + r.plain.solves() + r.traced.solves()
}

// roundRobin runs step on every runner that is not done, round after round,
// so that every workload samples the same slow and fast periods of the host.
func roundRobin(rs []*runner, done func(*runner) bool, step func(*runner) error) error {
	for {
		active := false
		for _, r := range rs {
			if done(r) {
				continue
			}
			active = true
			if err := step(r); err != nil {
				return err
			}
		}
		if !active {
			return nil
		}
	}
}
