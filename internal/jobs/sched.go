package jobs

import (
	"time"

	"triolet/internal/cluster"
)

// Fair-share scheduling: weighted deficit round-robin (WDRR) over the
// per-job pending queues. Each scheduling round credits every schedulable
// job with its weight, then walks the admission-order ring dispatching one
// task per whole credit. Over time each job receives worker slots in
// proportion to its weight regardless of task count — a thousand-task
// poison-heavy job cannot starve a ten-task job of weight 1, because the
// big job's credit buys it the same share per round. Credits of jobs with
// nothing ready are reset rather than banked, the standard DRR rule that
// stops an idle job from hoarding a burst.
//
// Rank health: every task failure on a rank adds 1 to its score, every
// success halves it. A rank at or above drainScore is draining — the
// scheduler stops assigning to it while the Mux keeps it alive, so a flaky
// rank sheds load gracefully before the heartbeat sweep retires it. Scores
// decay on success, so a recovered rank earns its way back.

// ready reports whether job j has a task dispatchable at fabric time now.
// Unrecorded jobs (admission record not yet durable — see Submit) are never
// ready.
func (j *job) ready(now time.Time) bool {
	return j.recorded && !j.state.Terminal() && j.ledger.Ready(now)
}

// schedule runs one WDRR round: it fills the provided idle-worker list with
// assignments in fair-share order — each taken from its job's ledger, which
// counts it in flight from now, and charged to its tenant — and returns
// them. Callers hold s.mu. The walk is deterministic — admission-order ring
// over the live jobs, ascending idle ranks — so a given state always yields
// the same dispatch plan (campaign replays).
//
// The ring rotates: each call resumes where the previous dispatch left off
// (s.ringIdx). Without the rotation a busy pool's steady state — workers
// freeing one at a time, so every call arrives with a single idle slot —
// would hand each slot to the first job in admission order and starve the
// rest; exactly the failure the campaign's fairness phase measures. A job
// whose quantum was cut short by idle-worker exhaustion keeps its unspent
// credit (at most its weight) and is not re-credited when the next call
// resumes it, so banked credit stays bounded.
func (s *Service) schedule(now time.Time, idle []int) []plannedDispatch {
	if len(idle) == 0 {
		return nil
	}
	var active []*job
	var pos []int // admission seq of each active job
	for _, j := range s.liveJobsLocked() {
		if j.ready(now) {
			active = append(active, j)
			pos = append(pos, j.seq)
		} else {
			j.credit = 0 // DRR: no banking while nothing is ready
		}
	}
	if len(active) == 0 {
		return nil
	}
	// Resume at the first active job at or past the ring pointer (wrapping
	// to the front when the pointer has passed every active job).
	rot := 0
	for i, oi := range pos {
		if oi >= s.ringIdx {
			rot = i
			break
		}
	}
	var plan []plannedDispatch
	for len(idle) > 0 {
		progressed := false
		for i := 0; i < len(active) && len(idle) > 0; i++ {
			k := (rot + i) % len(active)
			j := active[k]
			// An interrupted quantum (this job held the pointer with credit
			// in hand) resumes without a fresh credit grant.
			if !(len(plan) == 0 && i == 0 && pos[k] == s.ringIdx && j.credit >= 1) {
				j.credit += float64(j.spec.Weight)
			}
			for j.credit >= 1 && len(idle) > 0 {
				a, ok := j.ledger.Next(idle[0], now)
				if !ok {
					j.credit = 0
					break
				}
				j.credit--
				j.bytesIn += int64(len(a.Payload))
				j.markRunningLocked(now)
				plan = append(plan, plannedDispatch{a: a, worker: idle[0]})
				idle = idle[1:]
				progressed = true
				if len(idle) == 0 {
					if j.credit >= 1 && j.ready(now) {
						s.ringIdx = pos[k] // quantum cut short: resume here
					} else {
						s.ringIdx = pos[k] + 1
					}
				}
			}
		}
		if !progressed {
			break // every active job drained or in backoff
		}
	}
	return plan
}

// plannedDispatch is one scheduler decision: assignment a on worker.
type plannedDispatch struct {
	a      cluster.MuxAssignment
	worker int
}

// The failure policy: failureBackoff's ladder and the rank-health drain mark.
const (
	backoffBase = 2 * time.Millisecond
	backoffMax  = 100 * time.Millisecond
	drainScore  = 3
)

// failureBackoff is the backoff schedule every job's ledger is opened with.
// It computes attempt n's retry delay: exponential from
// backoffBase, capped at backoffMax, stretched by up to 20% seeded jitter
// so retries of tasks that failed together do not return together.
// Callers hold s.mu (the rng is shared).
func (s *Service) failureBackoff(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return d + time.Duration(float64(d)*0.2*s.rng.Float64())
}

// noteWorkerFailure penalizes a rank's health score after a task failure
// or timeout on it.
func (s *Service) noteWorkerFailure(w int) {
	s.health[w]++
}

// noteWorkerSuccess decays a rank's score after a successful task.
func (s *Service) noteWorkerSuccess(w int) {
	if sc := s.health[w]; sc > 0 {
		s.health[w] = sc / 2
	}
}

// drainingLocked reports whether rank w is drained from scheduling.
func (s *Service) drainingLocked(w int) bool {
	return s.health[w] >= drainScore
}

// usableWorkers filters the Mux's idle slots to non-draining ranks, in place.
// When every idle worker is draining, one slot of the least-unhealthy one is
// kept: a fully drained pool must still make progress (degraded, not stuck).
func (s *Service) usableWorkers(idle []int) []int {
	ok, best := idle[:0], -1
	for _, w := range idle {
		if !s.drainingLocked(w) {
			ok = append(ok, w)
		} else if best < 0 || s.health[w] < s.health[best] {
			best = w
		}
	}
	if len(ok) == 0 && best >= 0 {
		ok = append(ok, best)
	}
	return ok
}
