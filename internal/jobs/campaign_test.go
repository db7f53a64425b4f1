package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/mpi"
	"triolet/internal/transport"
)

// The chaos campaign is the service's acceptance gate: concurrent jobs (one
// poison-heavy) on a faulty fabric, the master killed mid-flight and
// restarted over the same WAL, results required bit-identical with no task
// re-executed; then a fairness round proving a small job's wait stays
// bounded next to much larger tenants, and an admission probe proving the
// high-water mark rejects fast with the typed error. CI runs a small
// deterministic instance on every push (make chaos-campaign); the nightly
// workflow runs it full-size.

// The campaign's fixed parameters; only its size varies.
const (
	// campaignPoisonTasks is how many of the poison job's tasks always fail.
	campaignPoisonTasks = 4
	// campaignNodes is the virtual cluster: one master plus three workers.
	campaignNodes = 4
	// campaignSeed feeds the fault injector, the retransmit jitter, and the
	// scheduler's backoff stream: the same seed replays the same campaign.
	campaignSeed = 20260808
	// campaignFaultRate is the per-delivery drop/duplicate/corrupt
	// probability on every link — the acceptance gate's 2% fabric.
	campaignFaultRate = 0.02
	// campaignWaitFactor bounds the fairness phase: the small job must
	// finish within this many times its solo runtime (floored at 50ms wall
	// clock to absorb scheduler noise).
	campaignWaitFactor = 10
	// campaignLatencyFactor bounds the fairness phase's latency
	// distribution: the small tenant's p50 and p99 per-task settle latencies
	// must stay within this factor of the combined heavy tenants' — sharing
	// with 10× tenants must not give the small job a worse distribution
	// than the tenants themselves see.
	campaignLatencyFactor = 1.0
)

// CampaignConfig sizes one campaign run.
type CampaignConfig struct {
	// Jobs is the number of concurrent jobs in the chaos phase (at least 2).
	// Job index 1 is poison-heavy.
	Jobs int
	// TasksPerJob is each job's task count (at least campaignPoisonTasks).
	TasksPerJob int
	// Kills is how many times the master is killed mid-flight before the
	// final life drains the service.
	Kills int
	// WALDir is the directory for the campaign's registry WAL.
	WALDir string
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// CampaignReport is the campaign's outcome. RunCampaign returns it
// alongside a nil error only when every gate held.
type CampaignReport struct {
	Jobs  int // concurrent jobs in the chaos phase
	Tasks int // total tasks across them
	Kills int // master kills that landed mid-flight

	// RecoveredSettled counts task records already durable at the first
	// resume — the progress the kill could not destroy.
	RecoveredSettled int
	// Records/WantRecords pin the no-re-execution proof: the final
	// registry must hold exactly one spec per job, one record per task,
	// and one summary per job.
	Records     int
	WantRecords int

	DegradedJobs int // must be exactly 1 (the poison job)
	Quarantined  int // must be exactly campaignPoisonTasks

	// AdmissionDepth/Limit echo the typed rejection the overflow probe hit.
	AdmissionDepth int
	AdmissionLimit int

	// Fairness phase wall-clock times: the small job alone, the same small
	// job next to two 10×-larger tenants, and the larger tenants' drain.
	SoloMS  float64
	SmallMS float64
	HeavyMS float64
	// WaitBoundMS is the starvation bound SmallMS was held to.
	WaitBoundMS float64

	// Per-task settle latency percentiles from the concurrent run: the
	// small tenant against the combined heavy tenants, each task measured
	// from its job's first dispatch to its settle. The distribution gate
	// requires SmallP50 ≤ campaignLatencyFactor×HeavyP50 and likewise at
	// p99.
	SmallP50MS float64
	SmallP99MS float64
	HeavyP50MS float64
	HeavyP99MS float64
}

// RunCampaign runs the full campaign and verifies every gate. A non-nil
// error means a gate failed (or the environment did); the report carries
// whatever was measured up to that point.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) {
	RegisterCampaignKernel()
	rep := &CampaignReport{Jobs: cfg.Jobs, Tasks: cfg.Jobs * cfg.TasksPerJob}
	if err := runChaosPhase(cfg, rep); err != nil {
		return rep, err
	}
	if err := runFairnessPhase(cfg, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// campaignSpecs builds the chaos phase's job set: Jobs jobs of TasksPerJob
// tasks each with cycling weights, job index 1 poison-heavy.
func campaignSpecs(cfg CampaignConfig) []Spec {
	specs := make([]Spec, cfg.Jobs)
	for i := range specs {
		tasks := make([][]byte, cfg.TasksPerJob)
		for j := range tasks {
			// First byte stays below the kernel's marker range.
			tasks[j] = []byte{byte(i) & 0x7F, byte(j), byte(i*7 + j*13), byte(campaignSeed & 0xFF)}
		}
		sp := Spec{
			Name:   fmt.Sprintf("campaign-%02d", i),
			Kernel: "jobs.campaign",
			Tasks:  tasks,
			Weight: 1 + i%3,
		}
		if i == 1 {
			// The poison-heavy tenant: its first campaignPoisonTasks tasks
			// always fail. Two attempts each keeps the degradation ladder
			// short.
			for j := 0; j < campaignPoisonTasks; j++ {
				sp.Tasks[j] = append([]byte{campaignPoisonMark}, sp.Tasks[j]...)
			}
			sp.MaxTaskAttempts = 2
		}
		specs[i] = sp
	}
	return specs
}

// campaignClusterConfig is the chaos phase's fabric: campaignFaultRate
// drop/duplicate/corrupt on every link, a fast ack ladder with seeded
// retransmit jitter so retries desynchronize but replay.
func campaignClusterConfig(life int) cluster.Config {
	return cluster.Config{
		Nodes: campaignNodes, CoresPerNode: 1,
		Fault: &transport.FaultConfig{
			Seed:    campaignSeed + int64(life),
			Default: transport.FaultProbs{Drop: campaignFaultRate, Duplicate: campaignFaultRate, Corrupt: campaignFaultRate},
		},
		Reliable: &mpi.ReliableConfig{
			AckTimeout:    500 * time.Microsecond,
			Retries:       100,
			MaxAckTimeout: 50 * time.Millisecond,
			JitterSeed:    campaignSeed,
		},
	}
}

func allTerminal(s *Service) bool {
	for _, st := range s.Jobs() {
		if st.State != Done.String() && st.State != Degraded.String() {
			return false
		}
	}
	return true
}

// runChaosPhase is the resume gate: submit, probe admission overflow, kill
// the master Kills times mid-flight, drain, verify bit-identical results
// and the exact registry record count.
func runChaosPhase(cfg CampaignConfig, rep *CampaignReport) error {
	walPath := filepath.Join(cfg.WALDir, "campaign.wal")
	wal, err := checkpoint.OpenWAL(walPath)
	if err != nil {
		return err
	}
	defer func() { wal.Close() }()

	svc, err := NewService(Config{Store: wal, Seed: campaignSeed, MaxQueued: cfg.Jobs})
	if err != nil {
		return err
	}
	specs := campaignSpecs(cfg)
	for _, sp := range specs {
		if err := svc.Submit(sp); err != nil {
			return fmt.Errorf("campaign submit %s: %w", sp.Name, err)
		}
	}

	// Admission probe: the service sits exactly at its high-water mark, so
	// one more submission must reject fast with the typed error.
	overflow := Spec{Name: "campaign-overflow", Kernel: "jobs.campaign", Tasks: [][]byte{{1}}}
	var adm *AdmissionError
	if err := svc.Submit(overflow); !errors.As(err, &adm) || !errors.Is(err, ErrQueueFull) {
		return fmt.Errorf("campaign: overflow submit returned %v, want AdmissionError", err)
	}
	rep.AdmissionDepth, rep.AdmissionLimit = adm.Depth, adm.Limit
	cfg.Logf("admission: overflow rejected at depth %d/limit %d", adm.Depth, adm.Limit)

	specRecords := wal.Records()
	// Each kill lands after roughly a Kills+1'th of the remaining work
	// checkpoints, so every life makes real progress and real losses.
	killDelta := cfg.Jobs * cfg.TasksPerJob / (cfg.Kills + 2)
	if killDelta < 4 {
		killDelta = 4
	}

	for life := 0; life < cfg.Kills; life++ {
		if allTerminal(svc) {
			break
		}
		threshold := wal.Records() + killDelta
		ctx, cancel := context.WithCancel(context.Background())
		watcherDone := make(chan struct{})
		go func(w *checkpoint.WAL, s *Service) {
			defer close(watcherDone)
			for {
				select {
				case <-ctx.Done():
					return
				default:
				}
				if w.Records() >= threshold || allTerminal(s) {
					cancel()
					return
				}
				time.Sleep(300 * time.Microsecond)
			}
		}(wal, svc)
		// The life ends in a simulated master crash: the context cancel
		// unwinds the session without flushing anything. Whatever error the
		// session reports is part of the crash.
		_, _ = cluster.RunCtx(ctx, campaignClusterConfig(life), func(sess *cluster.Session) error {
			return svc.Serve(ctx, sess)
		})
		cancel()
		<-watcherDone
		if !allTerminal(svc) {
			rep.Kills++
		}
		wal.Close()

		// Restart: a fresh service over the reopened WAL is the whole
		// recovery story — no other state survives the kill.
		wal, err = checkpoint.OpenWAL(walPath)
		if err != nil {
			return fmt.Errorf("campaign: reopen WAL after kill %d: %w", life+1, err)
		}
		svc, err = NewService(Config{Store: wal, Seed: campaignSeed + int64(life) + 1, MaxQueued: cfg.Jobs})
		if err != nil {
			return fmt.Errorf("campaign: recover after kill %d: %w", life+1, err)
		}
		if life == 0 {
			for _, st := range svc.Jobs() {
				rep.RecoveredSettled += st.Completed + st.Failed
			}
			if rep.RecoveredSettled == 0 {
				return errors.New("campaign: first kill left no durable progress in the WAL")
			}
			cfg.Logf("kill 1: %d settled task records recovered", rep.RecoveredSettled)
		}
	}
	if rep.Kills == 0 {
		return errors.New("campaign: no kill landed mid-flight; raise TasksPerJob")
	}

	// Final life: drain to terminal on the same faulty fabric.
	svc.Stop()
	if _, err := cluster.Run(campaignClusterConfig(cfg.Kills), func(sess *cluster.Session) error {
		return svc.Serve(context.Background(), sess)
	}); err != nil {
		return fmt.Errorf("campaign: final life: %w", err)
	}
	cfg.Logf("final life drained %d jobs after %d kills", cfg.Jobs, rep.Kills)

	// Verification: bit-identical results against the golden transform,
	// the poison tenant degraded with exactly its poison set quarantined,
	// and a registry that proves no task settled twice.
	for i, sp := range specs {
		st, ok := svc.Job(sp.Name)
		if !ok {
			return fmt.Errorf("campaign: job %s lost across restarts", sp.Name)
		}
		results, quarantined, rerr := svc.Result(sp.Name)
		if rerr != nil {
			return fmt.Errorf("campaign: result %s: %w", sp.Name, rerr)
		}
		if i == 1 {
			if st.State != Degraded.String() {
				return fmt.Errorf("campaign: poison job state %s, want degraded", st.State)
			}
			rep.DegradedJobs++
			rep.Quarantined = len(quarantined)
			if len(quarantined) != campaignPoisonTasks {
				return fmt.Errorf("campaign: poison job quarantined %d tasks, want %d", len(quarantined), campaignPoisonTasks)
			}
			for j := 0; j < campaignPoisonTasks; j++ {
				if _, q := quarantined[j]; !q {
					return fmt.Errorf("campaign: poison task %d not quarantined", j)
				}
			}
		} else if st.State != Done.String() {
			return fmt.Errorf("campaign: job %s state %s, want done", sp.Name, st.State)
		}
		for j, task := range sp.Tasks {
			if _, q := quarantined[j]; q {
				continue
			}
			if want := campaignTransform(task); !bytes.Equal(results[j], want) {
				return fmt.Errorf("campaign: %s task %d = %x, want %x (resume not bit-identical)",
					sp.Name, j, results[j], want)
			}
		}
	}
	rep.Records = wal.Records()
	rep.WantRecords = specRecords + cfg.Jobs*cfg.TasksPerJob + cfg.Jobs
	if rep.Records != rep.WantRecords {
		return fmt.Errorf("campaign: registry has %d records, want %d (specs %d + tasks %d + summaries %d): a task re-executed or was lost",
			rep.Records, rep.WantRecords, specRecords, cfg.Jobs*cfg.TasksPerJob, cfg.Jobs)
	}
	return nil
}

// runFairnessPhase is the starvation gate: a small job's wall-clock
// completion next to two 10×-larger tenants submitted ahead of it must
// stay within campaignWaitFactor × its solo runtime, and well inside the
// tenants' drain time. No faults here — fairness is measured without crash
// noise.
func runFairnessPhase(cfg CampaignConfig, rep *CampaignReport) error {
	const (
		smallTasks = 6
		waitFloor  = 50 * time.Millisecond
	)
	heavyTasks := 10 * smallTasks
	sleepTask := func(i, salt int) []byte {
		return []byte{campaignSleepMark, byte(i), byte(salt)}
	}
	makeSpec := func(name string, n, salt int) Spec {
		tasks := make([][]byte, n)
		for i := range tasks {
			tasks[i] = sleepTask(i, salt)
		}
		return Spec{Name: name, Kernel: "jobs.campaign", Tasks: tasks}
	}
	clusterCfg := cluster.Config{Nodes: campaignNodes, CoresPerNode: 1}
	drain := func(s *Service) (time.Duration, error) {
		s.Stop()
		start := time.Now()
		_, err := cluster.Run(clusterCfg, func(sess *cluster.Session) error {
			return s.Serve(context.Background(), sess)
		})
		return time.Since(start), err
	}

	// Solo baseline.
	solo, err := NewService(Config{Seed: campaignSeed})
	if err != nil {
		return err
	}
	if err := solo.Submit(makeSpec("fair-small", smallTasks, 1)); err != nil {
		return err
	}
	soloDur, err := drain(solo)
	if err != nil {
		return fmt.Errorf("campaign: fairness solo run: %w", err)
	}
	rep.SoloMS = float64(soloDur.Microseconds()) / 1e3

	// Concurrent: the heavy tenants are admitted first, so a FIFO
	// scheduler would drain all their tasks before the small job's.
	conc, err := NewService(Config{Seed: campaignSeed + 1})
	if err != nil {
		return err
	}
	if err := conc.Submit(makeSpec("fair-heavy-a", heavyTasks, 2)); err != nil {
		return err
	}
	if err := conc.Submit(makeSpec("fair-heavy-b", heavyTasks, 3)); err != nil {
		return err
	}
	if err := conc.Submit(makeSpec("fair-small", smallTasks, 4)); err != nil {
		return err
	}
	smallCh, err := conc.Wait("fair-small")
	if err != nil {
		return err
	}
	start := time.Now()
	smallDone := make(chan time.Duration, 1)
	go func() {
		<-smallCh
		smallDone <- time.Since(start)
	}()
	heavyDur, err := drain(conc)
	if err != nil {
		return fmt.Errorf("campaign: fairness concurrent run: %w", err)
	}
	smallDur := <-smallDone
	rep.SmallMS = float64(smallDur.Microseconds()) / 1e3
	rep.HeavyMS = float64(heavyDur.Microseconds()) / 1e3

	bound := soloDur
	if bound < waitFloor {
		bound = waitFloor
	}
	bound *= campaignWaitFactor
	rep.WaitBoundMS = float64(bound.Microseconds()) / 1e3
	cfg.Logf("fairness: small %.1fms, solo %.1fms, bound %.1fms, tenants %.1fms",
		rep.SmallMS, rep.SoloMS, rep.WaitBoundMS, rep.HeavyMS)
	if smallDur > bound {
		return fmt.Errorf("campaign: small job starved: %.1fms next to large tenants, bound %.1fms (solo %.1fms)",
			rep.SmallMS, rep.WaitBoundMS, rep.SoloMS)
	}
	// The interleaving proof: the small job must clear far before the
	// tenants admitted ahead of it drain — a FIFO would hold it to ~100%.
	if smallDur > heavyDur*4/5 {
		return fmt.Errorf("campaign: small job not interleaved: finished at %.1fms of the tenants' %.1fms drain",
			rep.SmallMS, rep.HeavyMS)
	}
	return checkLatencyDistribution(cfg, rep, conc, smallTasks, heavyTasks)
}

// checkLatencyDistribution is the fairness phase's distribution gate: the
// small tenant's per-task settle latencies (p50 and p99, measured from its
// first dispatch) must stay within campaignLatencyFactor × the combined
// heavy tenants'. The wall-clock check above bounds the small job's total
// wait; this one catches a scheduler that hits the total but serves the
// small tenant's tasks in a tail-heavy burst.
func checkLatencyDistribution(cfg CampaignConfig, rep *CampaignReport, conc *Service, smallTasks, heavyTasks int) error {
	small, err := conc.TaskLatencies("fair-small")
	if err != nil {
		return fmt.Errorf("campaign: latency gate: %w", err)
	}
	heavyA, err := conc.TaskLatencies("fair-heavy-a")
	if err != nil {
		return fmt.Errorf("campaign: latency gate: %w", err)
	}
	heavyB, err := conc.TaskLatencies("fair-heavy-b")
	if err != nil {
		return fmt.Errorf("campaign: latency gate: %w", err)
	}
	heavy := append(heavyA, heavyB...)
	if len(small) != smallTasks || len(heavy) != 2*heavyTasks {
		return fmt.Errorf("campaign: latency gate: %d small / %d heavy samples, want %d / %d",
			len(small), len(heavy), smallTasks, 2*heavyTasks)
	}
	smallP50, smallP99 := latencyPercentile(small, 50), latencyPercentile(small, 99)
	heavyP50, heavyP99 := latencyPercentile(heavy, 50), latencyPercentile(heavy, 99)
	rep.SmallP50MS = float64(smallP50.Microseconds()) / 1e3
	rep.SmallP99MS = float64(smallP99.Microseconds()) / 1e3
	rep.HeavyP50MS = float64(heavyP50.Microseconds()) / 1e3
	rep.HeavyP99MS = float64(heavyP99.Microseconds()) / 1e3
	cfg.Logf("latency: small p50/p99 %.1f/%.1fms vs heavy %.1f/%.1fms (factor %.2f)",
		rep.SmallP50MS, rep.SmallP99MS, rep.HeavyP50MS, rep.HeavyP99MS, campaignLatencyFactor)
	if float64(smallP50) > campaignLatencyFactor*float64(heavyP50) {
		return fmt.Errorf("campaign: small tenant p50 %.1fms exceeds %.2fx heavy p50 %.1fms",
			rep.SmallP50MS, campaignLatencyFactor, rep.HeavyP50MS)
	}
	if float64(smallP99) > campaignLatencyFactor*float64(heavyP99) {
		return fmt.Errorf("campaign: small tenant p99 %.1fms exceeds %.2fx heavy p99 %.1fms",
			rep.SmallP99MS, campaignLatencyFactor, rep.HeavyP99MS)
	}
	return nil
}

// latencyPercentile is the nearest-rank percentile of d (p in (0,100]).
// With few samples high percentiles resolve to the maximum, which is the
// conservative direction for a gate.
func latencyPercentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// campaignSize reads one CAMPAIGN_* size from the environment: def when the
// variable is unset, a test failure when it is not an integer of at least
// lo.
func campaignSize(t *testing.T, name string, def, lo int) int {
	t.Helper()
	s, ok := os.LookupEnv(name)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < lo {
		t.Fatalf("%s=%q: want an integer >= %d", name, s, lo)
	}
	return n
}

// TestChaosCampaignGate is the campaign's one runner: by default a small
// deterministic instance — 8 concurrent jobs of 12 tasks (one
// poison-heavy) on a 2%-fault fabric, the master killed twice mid-flight
// and resumed from the WAL bit-identically with no task re-executed, a
// small job unharmed by 10× tenants, and the admission high-water mark
// rejecting fast. CAMPAIGN_JOBS, CAMPAIGN_TASKS and CAMPAIGN_KILLS resize
// it (the nightly workflow runs 16 × 40 with 4 kills). RunCampaign
// enforces every gate internally; the test pins the report's shape on top.
func TestChaosCampaignGate(t *testing.T) {
	cfg := CampaignConfig{
		Jobs:        campaignSize(t, "CAMPAIGN_JOBS", 8, 2),
		TasksPerJob: campaignSize(t, "CAMPAIGN_TASKS", 12, campaignPoisonTasks),
		Kills:       campaignSize(t, "CAMPAIGN_KILLS", 2, 1),
		WALDir:      t.TempDir(),
		Logf:        t.Logf,
	}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign failed: %v\nreport so far: %+v", err, rep)
	}
	if rep.Jobs != cfg.Jobs || rep.Tasks != cfg.Jobs*cfg.TasksPerJob {
		t.Fatalf("campaign sized %d jobs / %d tasks, want %d/%d", rep.Jobs, rep.Tasks, cfg.Jobs, cfg.Jobs*cfg.TasksPerJob)
	}
	if rep.Kills < 1 {
		t.Fatalf("no mid-flight master kill landed: %+v", rep)
	}
	if rep.RecoveredSettled < 1 {
		t.Fatalf("first resume recovered no settled tasks: %+v", rep)
	}
	if rep.DegradedJobs != 1 || rep.Quarantined != campaignPoisonTasks {
		t.Fatalf("degradation report = %d jobs / %d quarantined, want 1/%d", rep.DegradedJobs, rep.Quarantined, campaignPoisonTasks)
	}
	if rep.AdmissionLimit != cfg.Jobs || rep.AdmissionDepth != cfg.Jobs {
		t.Fatalf("admission probe = depth %d / limit %d, want %d/%d", rep.AdmissionDepth, rep.AdmissionLimit, cfg.Jobs, cfg.Jobs)
	}
	if rep.Records != rep.WantRecords {
		t.Fatalf("registry %d records, want %d", rep.Records, rep.WantRecords)
	}
	if rep.SmallMS <= 0 || rep.SmallMS > rep.WaitBoundMS {
		t.Fatalf("fairness timings out of bounds: %+v", rep)
	}
}
