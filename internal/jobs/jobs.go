// Package jobs is the multi-tenant job service: the policy layer over the
// cluster package's multiplexed farm engine (cluster.Mux). The Mux moves
// tasks and reports liveness; this package decides everything else — which
// jobs are admitted, whose task goes out next, what happens when a task
// fails, and what survives a master crash.
//
// The shape mirrors the paper's separation of skeleton interface from
// backend plumbing (§2): a Spec is the user-facing description of a farm
// job, and the service owns the operational concerns the paper's runtime
// never had to face — admission control with backpressure, weighted fair
// sharing between concurrent tenants, retry budgets with seeded backoff,
// rank health tracking, and a write-ahead registry (internal/checkpoint)
// that makes every submitted job crash-safe: kill the master mid-flight,
// restart it on the same store, and each job resumes from its last
// checkpointed task with bit-identical results.
package jobs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/transport"
)

// State is a job's lifecycle state. Transitions only move forward:
// Queued → Running → (Done | Degraded). See DESIGN.md §13 for the full
// lifecycle and the degradation ladder that selects Degraded.
type State uint8

const (
	// Queued: admitted and durably recorded, no task dispatched yet.
	Queued State = 1
	// Running: at least one task has been dispatched or completed.
	Running State = 2
	// Done: every task completed successfully.
	Done State = 3
	// Degraded: terminal with at least one quarantined task — the job ran
	// out of per-task attempts or its retry budget. Completed tasks'
	// results are still available; the quarantined ones carry their final
	// errors (the partial-result report).
	Degraded State = 4
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Degraded }

// ErrQueueFull is the admission-control rejection: the service is at its
// high-water mark of live jobs. Submit fails fast with an AdmissionError
// wrapping this — it never blocks the caller.
var ErrQueueFull = errors.New("jobs: admission queue full")

// ErrDuplicate reports a Submit reusing a known job name.
var ErrDuplicate = errors.New("jobs: duplicate job name")

// ErrUnknownJob reports a lookup for a name the service has never admitted.
var ErrUnknownJob = errors.New("jobs: unknown job")

// ErrStopped reports a Submit after Stop: the service is draining.
var ErrStopped = errors.New("jobs: service stopped")

// AdmissionError carries the queue state behind an ErrQueueFull rejection,
// so callers can log or surface why admission failed and at what depth.
type AdmissionError struct {
	Job   string
	Depth int // live (non-terminal) jobs at rejection time
	Limit int // the configured high-water mark
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("jobs: admission rejected %q: %d live jobs at limit %d", e.Job, e.Depth, e.Limit)
}

func (e *AdmissionError) Unwrap() error { return ErrQueueFull }

// ErrQuotaExceeded reports a job over its declared fabric byte budget.
// Submit wraps it in a *QuotaError when the task payloads alone exceed the
// budget; at runtime a job whose accounted bytes (payloads in + results
// out) cross the budget has its remaining tasks quarantined with a
// QuotaError message and completes Degraded.
var ErrQuotaExceeded = errors.New("jobs: fabric byte quota exceeded")

// QuotaError carries the accounting behind an ErrQuotaExceeded rejection
// or degradation, mirroring AdmissionError's shape.
type QuotaError struct {
	Job    string
	Used   int64 // bytes accounted (or statically required) when tripped
	Budget int64 // the job's declared ByteBudget
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("jobs: %q over byte quota: %d used of %d budgeted", e.Job, e.Used, e.Budget)
}

func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// Spec describes one job: a named task list bound to a registered farm
// kernel, plus the fairness and robustness knobs the service schedules by.
type Spec struct {
	// Name uniquely identifies the job in the service and its registry.
	Name string
	// Kernel names the cluster.RegisterFarm kernel every task runs.
	Kernel string
	// Tasks are the per-task input payloads.
	Tasks [][]byte
	// Weight is the job's fair-share weight (default 1): the scheduler
	// dispatches tasks in proportion to weight across competing jobs.
	Weight int
	// MaxTaskAttempts bounds executions of a single task before it is
	// quarantined (default 3).
	MaxTaskAttempts int
	// RetryBudget bounds retries across the whole job (default
	// 2×len(Tasks)). An exhausted budget stops rescue attempts: remaining
	// failures quarantine immediately and the job completes degraded.
	RetryBudget int
	// TaskTimeout bounds one attempt's time in flight, measured on the
	// fabric clock (0 disables) from its dispatch or, when it was queued
	// behind another on its worker, from that one's report. A timed-out
	// attempt is rescheduled elsewhere and the slow rank's health score is
	// penalized; the late result, if it ever arrives, is deduplicated.
	TaskTimeout time.Duration
	// ByteBudget caps the job's accounted fabric bytes — task payloads
	// dispatched plus result bytes returned (0 = unlimited). A submission
	// whose payloads alone exceed it is rejected with a *QuotaError;
	// a running job that crosses it is degraded: still-pending tasks are
	// quarantined (durably, like any other failure) and the job completes
	// Degraded, while in-flight attempts settle normally.
	ByteBudget int64
}

func (sp Spec) withDefaults() Spec {
	if sp.Weight <= 0 {
		sp.Weight = 1
	}
	if sp.MaxTaskAttempts <= 0 {
		sp.MaxTaskAttempts = 3
	}
	if sp.RetryBudget <= 0 {
		sp.RetryBudget = 2 * len(sp.Tasks)
	}
	return sp
}

// validate checks a defaulted spec. The registry stores the three counts as
// U32, so a count beyond that range would come back from a restart as
// another value.
func (sp Spec) validate() error {
	if sp.Name == "" {
		return errors.New("jobs: spec needs a name")
	}
	for _, n := range []int{sp.Weight, sp.MaxTaskAttempts, sp.RetryBudget} {
		if n < 1 || int64(n) > math.MaxUint32 {
			return fmt.Errorf("jobs: spec %q: weight, max_task_attempts and retry_budget must lie in [1, 2^32)", sp.Name)
		}
	}
	if sp.Kernel == "" {
		return fmt.Errorf("jobs: spec %q needs a kernel", sp.Name)
	}
	if len(sp.Tasks) == 0 {
		return fmt.Errorf("jobs: spec %q has no tasks", sp.Name)
	}
	if sp.ByteBudget > 0 {
		var need int64
		for _, t := range sp.Tasks {
			need += int64(len(t))
		}
		if need > sp.ByteBudget {
			return &QuotaError{Job: sp.Name, Used: need, Budget: sp.ByteBudget}
		}
	}
	return nil
}

// Config tunes the service.
type Config struct {
	// MaxQueued is the admission high-water mark: the maximum number of
	// live (non-terminal) jobs (default 16). Submissions beyond it fail
	// fast with an AdmissionError.
	MaxQueued int
	// MaxBodyBytes caps a POST /jobs request body (default 8 MiB). Like
	// MaxQueued it is admission control, but on bytes: the HTTP surface
	// stops reading at the cap and answers 413 with a typed error, so one
	// client cannot balloon the master's memory with an unbounded spec.
	MaxBodyBytes int64
	// Store is the durable job registry (default: an in-memory store —
	// crash-safety requires a checkpoint.WAL).
	Store checkpoint.Store
	// Seed feeds the scheduler's jitter stream (retry backoff spreading).
	// The same seed over the same event sequence replays identically.
	Seed int64
	// BackoffBase is the first retry's delay (default 2ms); attempt n
	// waits Base×2ⁿ⁻¹, capped at BackoffMax (default 100ms), stretched by
	// up to 20% seeded jitter. Delays are measured on the fabric clock.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HeartbeatTimeout is passed through to the Mux (0 = farm default).
	HeartbeatTimeout time.Duration
	// DrainScore is the rank health score at which the scheduler stops
	// assigning new tasks to a rank (default 3): each task failure adds 1,
	// each success halves. Draining precedes heartbeat retirement — a
	// flaky-but-alive rank sheds load before it is declared dead.
	DrainScore float64
	// CompactEvery compacts the registry after that many job completions,
	// shrinking finished jobs to their summary records (0 disables —
	// compaction drops completed jobs' task results from the store, so it
	// is opt-in for deployments that collect results promptly).
	CompactEvery int
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 16
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Store == nil {
		cfg.Store = checkpoint.NewMem()
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 100 * time.Millisecond
	}
	if cfg.DrainScore <= 0 {
		cfg.DrainScore = 3
	}
	return cfg
}

// job is the service-internal state of one admitted job: its tenancy.
// Everything per task — the queue, attempts, what is in flight, results and
// quarantines — is in the job's ledger.
type job struct {
	spec  Spec
	state State
	// recorded reports that the job's admission record is durable in the
	// registry. Until then the job is invisible to the scheduler (ready()
	// returns false), so a failed Submit can roll the slot back with
	// nothing in flight — see Submit.
	recorded bool
	ledger   *cluster.Ledger
	// credit is the WDRR deficit counter (see sched.go).
	credit      float64
	taskSeconds time.Duration
	bytesIn     int64
	bytesOut    int64
	// firstRun is the fabric-clock instant of the Queued→Running
	// transition; latencies records each task's settle time relative to
	// it, in settle order — the raw data behind the fairness campaign's
	// p50/p99 distribution check.
	firstRun  time.Time
	latencies []time.Duration
	done      chan struct{}
}

// markRunningLocked flips Queued→Running and stamps the latency epoch.
func (j *job) markRunningLocked(now time.Time) {
	if j.state == Queued {
		j.state = Running
	}
	if j.firstRun.IsZero() {
		j.firstRun = now
	}
}

// noteSettleLocked records one task's settle latency (fabric clock).
func (j *job) noteSettleLocked(now time.Time) {
	if !j.firstRun.IsZero() {
		if d := now.Sub(j.firstRun); d >= 0 {
			j.latencies = append(j.latencies, d)
		}
	}
}

// overQuotaLocked reports whether the job's accounted bytes crossed its
// declared budget.
func (j *job) overQuotaLocked() bool {
	return j.spec.ByteBudget > 0 && j.bytesIn+j.bytesOut > j.spec.ByteBudget
}

// newJob opens sp's job with every task pending. backoff is the service's
// retry schedule (see failureBackoff).
func newJob(sp Spec, backoff func(attempt int) time.Duration) *job {
	return &job{
		spec:   sp,
		state:  Queued,
		ledger: cluster.NewLedger(sp.Name, sp.Kernel, sp.Tasks, sp.MaxTaskAttempts, sp.RetryBudget, backoff),
		done:   make(chan struct{}),
	}
}

// Service is the multi-tenant job service. Submit and the status accessors
// are safe from any goroutine (the HTTP surface calls them); Serve runs in
// the cluster master goroutine and owns all dispatching.
type Service struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // admission order: the scheduler's round-robin ring
	stopped bool
	health  map[int]float64
	rng     *rand.Rand
	// ringIdx is the WDRR ring pointer: the admission-order index the next
	// scheduling walk resumes from (see sched.go).
	ringIdx int
	// completedSinceCompact counts terminal transitions toward the next
	// registry compaction.
	completedSinceCompact int
	// serving mirrors whether a Serve loop is currently attached; metrics
	// report live worker counts only then.
	serving  bool
	workers  int
	draining []int
	// ep is the attached Serve loop's endpoint, nil when none is attached.
	// The loop idles on it, so Submit and Stop wake it there.
	ep *transport.Endpoint
}

// wakeServeLocked rouses the attached Serve loop, if any.
func (s *Service) wakeServeLocked() {
	if s.ep != nil {
		s.ep.Wake()
	}
}

// NewService builds a service over cfg.Store and replays the registry: jobs
// with a spec record and no completion record are re-queued with their
// checkpointed task results hydrated (the crash-resume path), terminal jobs
// are loaded for status and result queries.
func NewService(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		jobs:   map[string]*job{},
		health: map[int]float64{},
		rng:    rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 0x7F4A7C15)),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover replays the registry into the in-memory job table.
func (s *Service) recover() error {
	recs, err := s.cfg.Store.LoadAll()
	if err != nil {
		return fmt.Errorf("jobs: registry scan: %w", err)
	}
	for _, rec := range recs {
		switch rec.Kind {
		case checkpoint.KindJobSpec:
			sp, derr := decodeSpec(rec.Job, rec.Payload)
			if derr != nil {
				return fmt.Errorf("jobs: registry: job %q: %w", rec.Job, derr)
			}
			if _, dup := s.jobs[rec.Job]; dup {
				return fmt.Errorf("jobs: registry: duplicate spec for %q", rec.Job)
			}
			j := newJob(sp, s.failureBackoff)
			j.recorded = true // the spec record is what we just read
			s.jobs[rec.Job] = j
			s.order = append(s.order, rec.Job)
		case checkpoint.KindJobDone:
			sum, derr := decodeDone(rec.Payload)
			if derr != nil {
				return fmt.Errorf("jobs: registry: job %q summary: %w", rec.Job, derr)
			}
			j, ok := s.jobs[rec.Job]
			if !ok {
				// A compacted registry: the terminal job's spec and results
				// were reclaimed and only the summary survives. Rebuild a
				// tombstone — the name stays reserved and the status surface
				// keeps reporting the outcome, but Result() is empty.
				// The ledger is empty; only the task count is restored.
				j = newJob(Spec{Name: rec.Job}, nil)
				j.spec.Tasks = make([][]byte, sum.completed+sum.failed)
				j.recorded = true
				s.jobs[rec.Job] = j
				s.order = append(s.order, rec.Job)
			}
			j.state = sum.state
			// A terminal job's ledger is closed; its retry count is the
			// summary's, not what this process replayed.
			j.ledger.Retried = sum.retriesUsed
			j.taskSeconds = sum.taskSeconds
			close(j.done)
		default:
			// A task outcome. The ledger ignores a record it cannot place
			// (index out of range, task already settled); one for a job this
			// service never admitted is a farm checkpoint sharing the store.
			if j, ok := s.jobs[rec.Job]; ok && j.ledger.Replay(rec) && j.state == Queued {
				j.state = Running
			}
		}
	}
	return nil
}

// Submit admits one job: the spec is validated, durably recorded
// (write-ahead — the record hits the registry before Submit returns), and
// queued for the scheduler. Past the high-water mark it fails fast with an
// AdmissionError; it never blocks on a busy cluster.
func (s *Service) Submit(sp Spec) error {
	sp = sp.withDefaults()
	if err := sp.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	if _, dup := s.jobs[sp.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicate, sp.Name)
	}
	if depth := s.liveLocked(); depth >= s.cfg.MaxQueued {
		s.mu.Unlock()
		return &AdmissionError{Job: sp.Name, Depth: depth, Limit: s.cfg.MaxQueued}
	}
	// Reserve the slot before the store write so concurrent submitters
	// cannot both pass the high-water check. The job enters the table
	// unrecorded: ready() hides it from a concurrently running Serve loop
	// until the spec record is durable, so nothing can be in flight if the
	// append fails and the slot is rolled back (the crash-resume invariant:
	// no task ever executes for a job without a durable admission record).
	j := newJob(sp, s.failureBackoff)
	s.jobs[sp.Name] = j
	s.order = append(s.order, sp.Name)
	s.mu.Unlock()

	if err := s.cfg.Store.Append(checkpoint.Record{
		Job:     sp.Name,
		Kind:    checkpoint.KindJobSpec,
		Payload: encodeSpec(sp),
	}); err != nil {
		s.mu.Lock()
		delete(s.jobs, sp.Name)
		s.order = removeName(s.order, sp.Name)
		s.mu.Unlock()
		close(j.done) // release any waiter that raced the failed admission
		return fmt.Errorf("jobs: record admission of %q: %w", sp.Name, err)
	}
	s.mu.Lock()
	j.recorded = true
	s.wakeServeLocked()
	s.mu.Unlock()
	return nil
}

func removeName(names []string, name string) []string {
	for i, n := range names {
		if n == name {
			return append(names[:i], names[i+1:]...)
		}
	}
	return names
}

// liveLocked counts non-terminal jobs. Callers hold s.mu.
func (s *Service) liveLocked() int {
	n := 0
	for _, j := range s.jobs {
		if !j.state.Terminal() {
			n++
		}
	}
	return n
}

// Stop puts the service into drain mode: no new submissions, and Serve
// returns once every admitted job is terminal.
func (s *Service) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.wakeServeLocked()
	s.mu.Unlock()
}

// Wait returns a channel closed when the named job reaches a terminal
// state (already closed for terminal jobs), or ErrUnknownJob.
func (s *Service) Wait(name string) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	return j.done, nil
}

// Result returns a terminal job's per-task results and its quarantined
// tasks' final errors. For a Done job the error map is empty; for a
// Degraded job the two together cover every task (the partial-result
// report). The results are the checkpointed bytes — after a crash and
// resume they are bit-identical to an uninterrupted run's.
func (s *Service) Result(name string) ([][]byte, map[int]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	if !j.state.Terminal() {
		return nil, nil, fmt.Errorf("jobs: %q not terminal (%s)", name, j.state)
	}
	out := make([][]byte, len(j.spec.Tasks))
	for t, r := range j.ledger.Results {
		out[t] = append([]byte(nil), r...)
	}
	quarantined := make(map[int]string, len(j.ledger.Failed))
	for _, f := range j.ledger.Failed {
		quarantined[f.Task] = f.Err
	}
	return out, quarantined, nil
}
