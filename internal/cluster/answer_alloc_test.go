//go:build !race

package cluster

import (
	"context"
	"testing"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/serial"
	"triolet/internal/transport"
)

// A worker answering through Node.Answer allocates once per task: the
// buffer the kernel writes is the reply's frame, sealed in place. Six tasks
// stay inside one send window, so nothing waits on the master; the master
// then receives each reply whole.
func TestWorkerReplyAllocsOnce(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	RegisterFarm("answer.allocs", answerKernel(nil, nil))
	f := transport.New(transport.Config{Ranks: 2})
	defer f.Close()
	rel := mpi.ReliableConfig{AckTimeout: time.Hour}
	n := &Node{Comm: mpi.NewReliableComm(f, 1, rel)}
	var head serial.Writer
	a := MuxAssignment{Job: "job", Kernel: "answer.allocs", Task: 3, Payload: []byte{5}}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := serveTask(n, &head, a); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("a worker's reply allocates %v times, want 1", allocs)
	}
	master := mpi.NewReliableComm(f, 0, rel)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for range 6 {
		m, err := master.RecvCtx(ctx, 1, muxResultTag)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := decodeMuxResult(1, m.Payload)
		if err != nil || ev.Job != a.Job || ev.Task != a.Task || !ev.OK || len(ev.Result) != 64 {
			t.Fatalf("reply decodes to %+v (%v)", ev, err)
		}
	}
}
