package jobs

import (
	"fmt"
	"time"
)

// JobStatus is one job's externally visible state, as reported by the
// status surface and the metrics snapshot.
type JobStatus struct {
	Name   string `json:"name"`
	State  string `json:"state"`
	Kernel string `json:"kernel"`
	Weight int    `json:"weight"`

	Tasks     int `json:"tasks"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Inflight  int `json:"inflight"`
	Pending   int `json:"pending"`

	RetriesUsed int `json:"retries_used"`
	RetryBudget int `json:"retry_budget"`

	// TaskSeconds is the job's accumulated kernel compute time across all
	// workers, measured on the fabric clock (the fair-share currency).
	TaskSeconds float64 `json:"task_seconds"`
	// BytesIn/BytesOut are task payload and result bytes moved for this job.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// ByteBudget is the job's declared fabric byte quota (0 = unlimited).
	ByteBudget int64 `json:"byte_budget,omitempty"`
	// Share is the job's configured fraction of the total live weight.
	Share float64 `json:"share"`
}

// Snapshot is one consistent observation of the whole service.
type Snapshot struct {
	Jobs []JobStatus `json:"jobs"`
	// QueueDepth counts live (non-terminal) jobs against the admission
	// high-water mark.
	QueueDepth int  `json:"queue_depth"`
	MaxQueued  int  `json:"max_queued"`
	Stopped    bool `json:"stopped"`
	// Serving reports whether a Serve loop is attached; Workers and
	// Draining are meaningful only then.
	Serving  bool  `json:"serving"`
	Workers  int   `json:"workers"`
	Draining []int `json:"draining,omitempty"`
}

// statusLocked builds one job's status. Callers hold s.mu.
func (s *Service) statusLocked(j *job, totalWeight int) JobStatus {
	st := JobStatus{
		Name:        j.spec.Name,
		State:       j.state.String(),
		Kernel:      j.spec.Kernel,
		Weight:      j.spec.Weight,
		Tasks:       len(j.spec.Tasks),
		Completed:   j.ledger.Settled() - len(j.ledger.Failed),
		Failed:      len(j.ledger.Failed),
		Inflight:    j.ledger.InFlight(),
		Pending:     len(j.ledger.Pending()),
		RetriesUsed: j.ledger.Retried,
		RetryBudget: j.spec.RetryBudget,
		TaskSeconds: j.taskSeconds.Seconds(),
		BytesIn:     j.bytesIn,
		BytesOut:    j.bytesOut,
		ByteBudget:  j.spec.ByteBudget,
	}
	if t := j.tombstone; t != nil {
		st.Tasks, st.Completed, st.Failed = t.completed+t.failed, t.completed, t.failed
	}
	if totalWeight > 0 && !j.state.Terminal() {
		st.Share = float64(j.spec.Weight) / float64(totalWeight)
	}
	return st
}

// Job returns one job's status.
func (s *Service) Job(name string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j, s.liveWeightLocked()), true
}

// Jobs returns every job's status in admission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	tw := s.liveWeightLocked()
	out := make([]JobStatus, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.statusLocked(s.jobs[name], tw))
	}
	return out
}

// liveWeightLocked sums live jobs' weights (the share denominator).
func (s *Service) liveWeightLocked() int {
	tw := 0
	for _, j := range s.liveJobsLocked() {
		tw += j.spec.Weight
	}
	return tw
}

// Metrics returns a consistent snapshot of the service.
func (s *Service) Metrics() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	tw := s.liveWeightLocked()
	snap := Snapshot{
		QueueDepth: s.liveLocked(),
		MaxQueued:  s.cfg.MaxQueued,
		Stopped:    s.stopped,
		Serving:    s.serving,
		Workers:    s.workers,
		Draining:   append([]int(nil), s.draining...),
	}
	for _, name := range s.order {
		snap.Jobs = append(snap.Jobs, s.statusLocked(s.jobs[name], tw))
	}
	return snap
}

// TaskLatencies returns the named job's per-task settle latencies, in
// settle order: each task's fabric-clock delay from the job's first
// dispatch to that task's final outcome (success or quarantine). This is
// the distribution the chaos campaign's fairness phase gates on (p50/p99
// small-vs-heavy tenants).
func (s *Service) TaskLatencies(name string) ([]time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, name)
	}
	return append([]time.Duration(nil), j.latencies...), nil
}
