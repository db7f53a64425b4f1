package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/jobs"
	"triolet/internal/parboil/cutcp"
	"triolet/internal/parboil/mriq"
	"triolet/internal/parboil/sgemm"
	"triolet/internal/parboil/tpacf"
)

// The probes of the two layers that sit on top of everything else: the job
// service and the four Parboil ports.

// withWAL runs f on a service over a fresh WAL in tmp and removes the file.
func withWAL(tmp string, cfg jobs.Config, f func(svc *jobs.Service) error) (err error) {
	path := filepath.Join(tmp, fmt.Sprintf("probe-jobs-%d.wal", os.Getpid()))
	wal, err := checkpoint.OpenWAL(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		if rerr := os.Remove(path); err == nil {
			err = rerr
		}
	}()
	cfg.Store = wal
	svc, err := jobs.NewService(cfg)
	if err != nil {
		return err
	}
	return f(svc)
}

func jobsProbes(e probeEffort, seed uint64, tmp string) ([]metric, error) {
	n := 20 * e.rounds
	work := svcJobs(seed, 0, n)[0]

	// Submit with nothing serving: admission, the spec's write-ahead record
	// and queueing, without dispatch.
	var submitUS, httpUS, rejectUS float64
	err := withWAL(tmp, jobs.Config{MaxQueued: 2*n + 1}, func(svc *jobs.Service) error {
		t0 := time.Now()
		for j, tasks := range work {
			if err := svc.Submit(jobs.Spec{Name: fmt.Sprintf("s%d", j), Kernel: hashKernel, Tasks: tasks}); err != nil {
				return err
			}
		}
		submitUS = float64(time.Since(t0)) / float64(time.Microsecond) / float64(n)

		h := svc.Handler()
		bodies := make([][]byte, n)
		for j, tasks := range work {
			enc := make([]string, len(tasks))
			for t, task := range tasks {
				enc[t] = base64.StdEncoding.EncodeToString(task)
			}
			b, err := json.Marshal(map[string]any{"name": fmt.Sprintf("h%d", j), "kernel": hashKernel, "tasks": enc})
			if err != nil {
				return err
			}
			bodies[j] = b
		}
		t0 = time.Now()
		for _, b := range bodies {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(b)))
			if w.Code != http.StatusCreated {
				return fmt.Errorf("POST /jobs: status %d: %s", w.Code, w.Body)
			}
		}
		httpUS = float64(time.Since(t0)) / float64(time.Microsecond) / float64(n)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("jobs probe: submit: %w", err)
	}

	// Rejection at the high-water mark: one queued job fills MaxQueued=1.
	err = withWAL(tmp, jobs.Config{MaxQueued: 1}, func(svc *jobs.Service) error {
		if err := svc.Submit(jobs.Spec{Name: "full", Kernel: hashKernel, Tasks: work[0]}); err != nil {
			return err
		}
		var rerr error
		rejectUS = e.perOp(func() {
			err := svc.Submit(jobs.Spec{Name: "over", Kernel: hashKernel, Tasks: work[0]})
			var adm *jobs.AdmissionError
			if !errors.As(err, &adm) {
				rerr = fmt.Errorf("submit past MaxQueued returned %v, want an AdmissionError", err)
			}
		}) / 1e3
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("jobs probe: admission: %w", err)
	}

	// A short closed-loop segment: the svc-closed workload's own rep, but
	// with the registry on a WAL, as a durable deployment runs it.
	svc, err := newSvcOnWAL(seed, e.svcJobs, tmp)
	if err != nil {
		return nil, fmt.Errorf("jobs probe: %w", err)
	}
	r, wall, err := svc.timedSegment(nil, e.svcJobs)
	if err != nil {
		return nil, fmt.Errorf("jobs probe: %w", err)
	}
	if len(r.failures) > 0 {
		return nil, fmt.Errorf("jobs probe: %d jobs failed: %s", len(r.failures), r.failures[0])
	}
	jobsDone := len(r.solveMS)
	return []metric{
		{Name: "jobs.submit_us", Unit: "us", Value: submitUS, Samples: n},
		{Name: "jobs.http_submit_us", Unit: "us", Value: httpUS, Samples: n},
		{Name: "jobs.admit_reject_us", Unit: "us", Value: rejectUS, Samples: e.rounds},
		{Name: "jobs.tasks_per_s", Unit: "1/s", Value: float64(jobsDone*svcTasksPerJob) / wall.Seconds(), Samples: jobsDone},
		{Name: "jobs.done_p95_ms", Unit: "ms", Value: quantile(r.solveMS, 0.95), Samples: jobsDone},
		{Name: "jobs.done_p99_ms", Unit: "ms", Value: quantile(r.solveMS, 0.99), Samples: jobsDone},
		{Name: "jobs.worker_busy_frac", Unit: "fraction", Value: r.busyFrac, Samples: jobsDone},
	}, nil
}

// parboilApp is one Parboil port: its Triolet and Ref entry points on inputs
// sized for a probe, not a workload.
type parboilApp struct {
	name    string
	triolet func(s *cluster.Session) error
	ref     func(cfg cluster.Config) error
}

func parboilApps(seed uint64) []parboilApp {
	mq := mriq.Gen(2048, 256, seed)
	sg := sgemm.Gen(128, 128, 128, seed)
	tp := tpacf.Gen(256, 4, 16, seed)
	cu := cutcp.Gen(2000, domain.NewDim3(16, 16, 16), 0.5, 2.0, seed)
	return []parboilApp{
		{"mriq",
			func(s *cluster.Session) error { _, err := mriq.Triolet(s, mq); return err },
			func(cfg cluster.Config) error { _, err := mriq.Ref(cfg, mq); return err }},
		{"sgemm",
			func(s *cluster.Session) error { _, err := sgemm.Triolet(s, sg); return err },
			func(cfg cluster.Config) error { _, err := sgemm.Ref(cfg, sg); return err }},
		{"tpacf",
			func(s *cluster.Session) error { _, err := tpacf.Triolet(s, tp); return err },
			func(cfg cluster.Config) error { _, err := tpacf.Ref(cfg, tp); return err }},
		{"cutcp",
			func(s *cluster.Session) error { _, err := cutcp.Triolet(s, cu); return err },
			func(cfg cluster.Config) error { _, err := cutcp.Ref(cfg, cu); return err }},
	}
}

// parboilProbes is the paper's four-app table in miniature: Triolet ÷ Ref at
// 2 nodes x 1 core, paired per round, and the exact bytes one run ships at
// 8 nodes x 1 core (a count: eight ranks on two cores give no wall-clock).
func parboilProbes(e probeEffort, seed uint64, _ string) ([]metric, error) {
	var ratios, bytesN8 []metric
	for _, app := range parboilApps(seed) {
		var rerr error
		ratio := e.ratio(
			func() {
				if _, err := cluster.Run(twoByOne(), app.triolet); err != nil {
					rerr = err
				}
			},
			func() {
				if err := app.ref(twoByOne()); err != nil {
					rerr = err
				}
			})
		if rerr != nil {
			return nil, fmt.Errorf("parboil probe: %s: %w", app.name, rerr)
		}
		st, err := cluster.Run(cluster.Config{Nodes: 8, CoresPerNode: 1}, app.triolet)
		if err != nil {
			return nil, fmt.Errorf("parboil probe: %s at 8 nodes: %w", app.name, err)
		}
		ratios = append(ratios, metric{Name: "parboil." + app.name + ".vs_ref", Unit: "ratio", Value: ratio, Samples: e.rounds})
		bytesN8 = append(bytesN8, metric{Name: "parboil." + app.name + ".wire_bytes_n8", Unit: "bytes", Value: float64(st.Bytes), Samples: 1})
	}
	return append(ratios, bytesN8...), nil
}
