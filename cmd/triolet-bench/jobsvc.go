package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/jobs"
)

// The job-service mode: -serve exposes a live service over HTTP on a
// virtual cluster, optionally WAL-backed so a restart resumes every
// submitted job.

// runServe hosts the job service: HTTP API on addr, jobs executed on a
// virtual cluster of the given size. With -wal the registry is durable —
// kill the process mid-job and the next -serve on the same path resumes.
// SIGINT/SIGTERM shuts down; in-flight jobs resume on the next start when
// a WAL is configured.
func runServe(nodes int, addr, walPath string) int {
	jobs.RegisterCampaignKernel() // a ready-to-use kernel for submissions

	cfg := jobs.Config{}
	if walPath != "" {
		wal, err := checkpoint.OpenWAL(walPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer wal.Close()
		cfg.Store = wal
	}
	svc, err := jobs.NewService(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: svc.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.ListenAndServe() }()

	fmt.Fprintf(os.Stderr, "job service on http://%s (POST /jobs, GET /jobs, GET /metrics)\n", addr)
	fmt.Fprintf(os.Stderr, "cluster: %d nodes; kernel %q registered; ctrl-c to stop\n", nodes, "jobs.campaign")
	if walPath != "" {
		fmt.Fprintf(os.Stderr, "registry WAL: %s (restart resumes in-flight jobs)\n", walPath)
	}

	_, runErr := cluster.RunCtx(ctx, cluster.Config{Nodes: nodes, CoresPerNode: 1},
		func(sess *cluster.Session) error {
			return svc.Serve(ctx, sess)
		})

	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)

	select {
	case err := <-httpErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "http: %v\n", err)
			return 1
		}
	default:
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", runErr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "job service stopped")
	return 0
}
