// AutoPar's cluster entry points. The perfmodel planner decides HOW a
// farm job should run (distribute or stay master-local, how many nodes);
// this file executes that decision and meters it, recording
// predicted-vs-observed trace instants so every auto-mapped run leaves an
// auditable accuracy trail:
//
//	plan.predicted        predicted wall time, µs
//	plan.predicted-bytes  predicted cross-fabric volume, bytes
//	plan.observed         observed wall time (fabric clock), µs
//	plan.observed-bytes   observed fabric volume delta, bytes
//
// cluster cannot import perfmodel (perfmodel imports the parboil ports,
// which import cluster), so the planner's Plan is projected into the
// dependency-free FarmPlan here and converted by callers (internal/harness).
package cluster

import (
	"context"
	"errors"

	"triolet/internal/transport"
)

// FarmPlan is the cluster-level projection of a perfmodel plan: just what
// the runtime needs to place and meter the job.
type FarmPlan struct {
	// Distribute ships tasks to worker ranks; false runs them on the
	// master (the kernel's own parallel loops still use the local pool).
	Distribute bool
	// Nodes is the virtual cluster size the plan wants; AutoFarm sizes
	// the cluster with it, FarmAuto only sanity-checks it.
	Nodes int
	// Label qualifies the trace instants (the workload name).
	Label string
	// PredictedSeconds and PredictedBytes are the plan's predictions,
	// recorded before the run for later comparison.
	PredictedSeconds float64
	PredictedBytes   int64
}

// FarmAuto runs one farm job the way the plan says, inside an existing
// session, and records predicted/observed instants on the master's
// tracer. The observed wall time is measured on the fabric clock and
// the observed bytes from the fabric's meter, so both follow an injected
// test clock/fabric.
func (s *Session) FarmAuto(name string, tasks [][]byte, plan FarmPlan, opt FarmOptions) (*FarmResult, error) {
	tr := s.node.Tracer
	tr.Instant(0, "plan.predicted", int64(plan.PredictedSeconds*1e6))
	tr.Instant(0, "plan.predicted-bytes", plan.PredictedBytes)
	clk := s.fabric.Clock()
	before := s.fabric.Stats().Bytes
	start := clk.Now()

	// A master-local plan is the same farm with no worker dispatched: tasks
	// run on the master one at a time (node-local parallelism belongs to the
	// kernel's own pool loops, and the pool runs one region at a time).
	fr, err := s.farm(name, tasks, opt, plan.Distribute)

	tr.Instant(0, "plan.observed", clk.Now().Sub(start).Microseconds())
	tr.Instant(0, "plan.observed-bytes", s.fabric.Stats().Bytes-before)
	return fr, err
}

// AutoFarm provisions a virtual cluster sized by the plan, runs one farm
// job on it under FarmAuto's metering, and tears the cluster down. It is
// the one-call entry point for a planned job when no session exists yet;
// inside an existing session use Session.FarmAuto.
func AutoFarm(cfg Config, plan FarmPlan, name string, tasks [][]byte, opt FarmOptions) (*FarmResult, transport.Stats, error) {
	if plan.Distribute && plan.Nodes > 1 {
		cfg.Nodes = plan.Nodes
	} else {
		cfg.Nodes = 1
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var fr *FarmResult
	stats, err := RunCtx(ctx, cfg, func(s *Session) error {
		var ferr error
		fr, ferr = s.FarmAuto(name, tasks, plan, opt)
		return ferr
	})
	if err != nil && fr == nil && !errors.Is(err, context.Canceled) {
		return nil, stats, err
	}
	return fr, stats, err
}
