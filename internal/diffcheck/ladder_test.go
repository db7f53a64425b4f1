package diffcheck

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"triolet/internal/checkpoint"
	"triolet/internal/cluster"
	"triolet/internal/jobs"
	"triolet/internal/mpi"
	"triolet/internal/transport"
)

// The failure ladder, rung by rung, through both of its clients (first step
// of ROADMAP 4(e)): each scenario runs the same task list once through
// Session.FarmOpts and once through a one-job jobs.Service with its backoff
// at the minimum. Whatever happened on the way — a retry, a lost worker, a
// zombie's late reply, the master running everything itself, half the job
// replayed from the store — each task must end with the outcome the kernel
// dictates, the same through either client, and the two stores must hold the
// same result and quarantine records.
func TestLadderRungByRungThroughBothClients(t *testing.T) {
	const job = "ladder"
	plain := func(n int, first byte) [][]byte {
		tasks := crashTasks('l', n, -1)
		for i := range tasks {
			if first != 0 {
				tasks[i][0] = first
			}
		}
		return tasks
	}
	with := func(tasks [][]byte, at int, first byte) [][]byte {
		tasks[at][0] = first
		return tasks
	}
	rows := []struct {
		name  string
		tasks [][]byte
		cfg   cluster.Config
		// stored is how many leading tasks already have their record in
		// the store when the run starts.
		stored int
		// lost is whether the farm must report a retired worker; masterRan
		// demands that the master executed tasks itself.
		lost, masterRan bool
	}{
		{name: "all tasks succeed", tasks: plain(10, 0)},
		{name: "a poison task", tasks: with(plain(10, 0), 4, 0xFF)},
		{name: "a task that fails its first attempt only", tasks: with(plain(10, 0), 6, 0xFE)},
		// The worker that runs task 1 dies inside the kernel. Neither client
		// hands the master a task while a worker lives, so a worker runs it.
		{name: "a worker crashed mid-task", tasks: with(plain(12, 0), 1, 0xFC), lost: true, cfg: cluster.Config{
			Reliable: fastRetry(),
		}},
		// Rank 1's inbox freezes after the dispatch handshake for longer than
		// the ack ladder takes to write it off and shorter than the run: its
		// task is reassigned and settled, then the zombie wakes, executes
		// what was parked and replies into a run that no longer wants it.
		{name: "a paused worker retired, its late reply after the reassignment settled", tasks: plain(32, 0xFD), lost: true, cfg: cluster.Config{
			Reliable: &mpi.ReliableConfig{AckTimeout: 500 * time.Microsecond, Retries: 10, MaxAckTimeout: 5 * time.Millisecond},
			Fault:    &transport.FaultConfig{Seed: 12, Pauses: []transport.Pause{{Rank: 1, AfterDeliveries: 2, Duration: 80 * time.Millisecond}}},
		}},
		{name: "every worker dead at dispatch", tasks: with(plain(8, 0), 3, 0xFF), lost: true, masterRan: true, cfg: cluster.Config{
			Reliable: fastRetry(),
			Fault: &transport.FaultConfig{Seed: 4, Crashes: []transport.Crash{
				{Rank: 1, AfterSends: 1}, {Rank: 2, AfterSends: 1},
			}},
		}},
		{name: "resume from a half-written store", tasks: with(plain(10, 0), 7, 0xFF), stored: 5},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func(master func(*cluster.Session) error) {
				t.Helper()
				if err := crashLifetime(row.cfg, master); err != nil {
					t.Fatalf("session: %v", err)
				}
			}
			// seed writes the records a half-finished earlier life left.
			seed := func(store checkpoint.Store) {
				for i := 0; i < row.stored; i++ {
					rec := checkpoint.Record{Job: job, Task: i, Kind: checkpoint.KindResult, Payload: crashResult(row.tasks[i])}
					if err := store.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			// check holds one client's outcome against what the kernel
			// dictates and returns its task records.
			check := func(client string, store *crashStore, results [][]byte, quarantined map[int]string) map[string]checkpoint.Record {
				t.Helper()
				for i, task := range row.tasks {
					msg, failed := quarantined[i]
					if task[0] == 0xFF {
						if !failed || msg != "poison task" || results[i] != nil {
							t.Errorf("%s: poison task %d: result %q, quarantine %q (%v)", client, i, results[i], msg, failed)
						}
						continue
					}
					if failed || !bytes.Equal(results[i], crashResult(task)) {
						t.Errorf("%s: task %d: result %q, quarantine %q", client, i, results[i], msg)
					}
					if runs := crashRunCount(task); i < row.stored && runs != 0 {
						t.Errorf("%s: task %d has a stored record and executed %d times", client, i, runs)
					}
				}
				if len(store.twice) > 0 {
					t.Errorf("%s: task records written twice: %v", client, store.twice)
				}
				return store.tasks
			}

			resetCrashRuns()
			farmStore := newCrashStore()
			seed(farmStore)
			var fr *cluster.FarmResult
			run(func(s *cluster.Session) (err error) {
				fr, err = s.FarmOpts("diffcheck.crashfarm", row.tasks,
					cluster.FarmOptions{Checkpoint: farmStore, Job: job})
				return err
			})
			farmFailed := map[int]string{}
			for _, f := range fr.Failed {
				farmFailed[f.Task] = f.Err
			}
			farmRecs := check("farm", farmStore, fr.Results, farmFailed)
			if row.lost != (len(fr.Lost) > 0) || (row.masterRan && fr.MasterRan == 0) || fr.Resumed != row.stored {
				t.Errorf("farm: Lost %v, MasterRan %d, Resumed %d; want lost=%v masterRan=%v resumed=%d",
					fr.Lost, fr.MasterRan, fr.Resumed, row.lost, row.masterRan, row.stored)
			}

			resetCrashRuns()
			svcStore := newCrashStore()
			svc, err := jobs.NewService(jobs.Config{Store: svcStore})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Submit(jobs.Spec{Name: job, Kernel: "diffcheck.crashfarm", Tasks: row.tasks, MaxTaskAttempts: crashAttempts}); err != nil {
				t.Fatal(err)
			}
			if row.stored > 0 {
				// The earlier life's records follow its admission record; the
				// service under test is the one that recovers from them.
				seed(svcStore)
				if svc, err = jobs.NewService(jobs.Config{Store: svcStore}); err != nil {
					t.Fatal(err)
				}
			}
			svc.Stop()
			run(func(s *cluster.Session) error { return svc.Serve(context.Background(), s) })
			results, quarantined, err := svc.Result(job)
			if err != nil {
				t.Fatal(err)
			}
			svcRecs := check("service", svcStore, results, quarantined)

			if len(farmRecs) != len(row.tasks) || len(svcRecs) != len(row.tasks) {
				t.Fatalf("task records: farm %d, service %d, want one per task (%d)", len(farmRecs), len(svcRecs), len(row.tasks))
			}
			for key, f := range farmRecs {
				s := svcRecs[key]
				if s.Kind != f.Kind || s.Attempts != f.Attempts || !bytes.Equal(s.Payload, f.Payload) {
					t.Errorf("record %s: farm {kind %d, attempts %d, %q}, service {kind %d, attempts %d, %q}",
						key, f.Kind, f.Attempts, f.Payload, s.Kind, s.Attempts, s.Payload)
				}
			}
			if want := fmt.Sprint(farmFailed); fmt.Sprint(quarantined) != want {
				t.Errorf("quarantined: service %v, farm %v", quarantined, want)
			}
		})
	}
}
