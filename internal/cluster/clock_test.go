package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/trace"
)

// fakeClock is an injectable transport.Clock: a fixed base plus an
// atomically advanced offset, so the test controls fabric time directly.
type fakeClock struct {
	base time.Time
	off  atomic.Int64 // nanoseconds past base
}

func newFakeClock() *fakeClock {
	return &fakeClock{base: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time { return c.base.Add(time.Duration(c.off.Load())) }

func (c *fakeClock) advance(d time.Duration) { c.off.Add(int64(d)) }

// Heartbeat retirement is a function of fabric time, not wall-clock
// scheduling: with an injected simulated clock and a beat interval of an
// hour, a single fabric-clock jump past heartbeatMisses intervals retires the
// silent worker in well under a second of real time. Before farm.go read
// liveness deadlines off the fabric clock this test would hang for the full
// wall-clock timeout.
func TestFarmHeartbeatRetirementFollowsFabricClock(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("sup.fabric-clock", func(n *Node, task []byte) ([]byte, error) {
		if !n.IsRoot() {
			// Silent far beyond the (real-time) jump window, far below
			// the fabric-time heartbeat timeout.
			time.Sleep(400 * time.Millisecond)
		}
		return task, nil
	})

	const hb = time.Hour // beats never arrive: the worker reads as silent
	const hbTimeout = heartbeatMisses * hb
	clk := newFakeClock()
	tr := trace.New()

	// One fabric-clock jump past the timeout, after dispatch has settled
	// in real time. Nothing else moves the clock, so retirement can only
	// come from fabric time.
	jump := time.AfterFunc(100*time.Millisecond, func() { clk.advance(hbTimeout + time.Minute) })
	defer jump.Stop()

	start := time.Now()
	_, err := runGuarded(t, Config{
		Nodes: 2, CoresPerNode: 1,
		Tracer:        tr,
		Clock:         clk,
		FarmHeartbeat: hb,
	}, func(s *Session) error {
		fr, err := s.FarmOpts("sup.fabric-clock", [][]byte{{0}, {1}}, FarmOptions{})
		if err != nil {
			return err
		}
		if len(fr.Lost) != 1 || fr.Lost[0] != 1 {
			return fmt.Errorf("Lost = %v, want [1]", fr.Lost)
		}
		if fr.MasterRan != 2 {
			return fmt.Errorf("MasterRan = %d, want 2", fr.MasterRan)
		}
		if fr.Reassigned != 2 { // the silent worker held both tasks
			return fmt.Errorf("Reassigned = %d, want 2", fr.Reassigned)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= hbTimeout {
		t.Fatalf("farm took %v of real time; retirement tracked the wall clock, not the fabric clock", elapsed)
	}
	if tr.Count("farm.heartbeat-miss") < 1 {
		t.Fatal("no farm.heartbeat-miss trace event")
	}
	if tr.Count("farm.retire") < 1 {
		t.Fatal("no farm.retire trace event")
	}
}

// The liveness rule, at two beat intervals: a worker silent for
// heartbeatMisses intervals of FarmHeartbeat is retired, one silent for an
// interval fewer is not. Beats are paced in real time, so at these intervals
// none arrives during the test, and only the frozen fabric clock moves.
func TestMuxRetiresAfterHeartbeatMisses(t *testing.T) {
	for _, hb := range []time.Duration{time.Minute, time.Hour} {
		t.Run(hb.String(), func(t *testing.T) {
			workerKernels.reset()
			farmKernels.reset()
			clk := newFakeClock()
			_, err := runGuarded(t, Config{Nodes: 2, CoresPerNode: 1, Clock: clk, FarmHeartbeat: hb}, func(s *Session) error {
				m, err := s.OpenMux(MuxOptions{})
				if err != nil {
					return err
				}
				if got, want := m.NextExpiry(), clk.Now().Add(heartbeatMisses*hb); !got.Equal(want) {
					return fmt.Errorf("NextExpiry = %v, want %v", got, want)
				}
				clk.advance((heartbeatMisses - 1) * hb)
				if ev, ok, err := m.Poll(); ok || err != nil {
					return fmt.Errorf("silent for %d intervals: event %+v, %v; want none", heartbeatMisses-1, ev, err)
				}
				clk.advance(hb)
				ev, ok, err := m.Poll()
				if err != nil || !ok || ev.Kind != MuxWorkerLost || ev.Worker != 1 {
					return fmt.Errorf("silent for %d intervals: event %+v, %v, %v; want worker 1 retired", heartbeatMisses, ev, ok, err)
				}
				return m.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
