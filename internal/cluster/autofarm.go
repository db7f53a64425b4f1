// AutoPar's cluster entry point. The perfmodel planner decides HOW a
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
	// the cluster with it.
	Nodes int
	// Label qualifies the trace instants (the workload name).
	Label string
	// PredictedSeconds and PredictedBytes are the plan's predictions,
	// recorded before the run for later comparison.
	PredictedSeconds float64
	PredictedBytes   int64
}

// AutoFarm provisions a virtual cluster sized by the plan, runs one farm job
// on it, and tears the cluster down: the one entry point for a planned job. A
// master-local plan gets a one-node cluster, where the tasks run on the master
// one at a time (node-local parallelism belongs to the kernel's own pool
// loops, and the pool runs one region at a time). The plan instants go to the
// master's tracer; the observed wall time is measured on the fabric clock and
// the observed bytes from the fabric's meter, so both follow an injected test
// clock/fabric.
func AutoFarm(cfg Config, plan FarmPlan, name string, tasks [][]byte, opt FarmOptions) (*FarmResult, transport.Stats, error) {
	cfg.Nodes = 1
	if plan.Distribute && plan.Nodes > 1 {
		cfg.Nodes = plan.Nodes
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var fr *FarmResult
	stats, err := RunCtx(ctx, cfg, func(s *Session) error {
		tr, clk := s.node.Tracer, s.fabric.Clock()
		tr.Instant(0, "plan.predicted", int64(plan.PredictedSeconds*1e6))
		tr.Instant(0, "plan.predicted-bytes", plan.PredictedBytes)
		before, start := s.fabric.Stats().Bytes, clk.Now()
		var ferr error
		fr, ferr = s.FarmOpts(name, tasks, opt)
		tr.Instant(0, "plan.observed", clk.Now().Sub(start).Microseconds())
		tr.Instant(0, "plan.observed-bytes", s.fabric.Stats().Bytes-before)
		return ferr
	})
	if err != nil && fr == nil && !errors.Is(err, context.Canceled) {
		return nil, stats, err
	}
	return fr, stats, err
}
