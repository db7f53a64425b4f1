package cluster

import (
	"sync"
	"testing"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/serial"
)

// answerKernel answers task t with its first byte as eight int64 words,
// through Node.Answer; addrs records where each worker-side answer began.
func answerKernel(addrs map[byte]*byte, mu *sync.Mutex) FarmFn {
	return func(n *Node, task []byte) ([]byte, error) {
		w := n.Answer(8 * 8)
		for k := range 8 {
			w.Int(int(task[0]) + k)
		}
		out := w.Bytes()
		if n.Rank() != 0 && addrs != nil {
			mu.Lock()
			addrs[task[0]] = &out[0]
			mu.Unlock()
		}
		return out, nil
	}
}

// TestAnswerIsTheReplyFrame: a kernel that answers through Node.Answer on a
// worker has its answer carried in that buffer, so on a lossless reliable
// fabric the master's result is a view of the very bytes the kernel wrote;
// on the master, where answers never travel, the writer is exactly sized.
func TestAnswerIsTheReplyFrame(t *testing.T) {
	workerKernels.reset()
	farmKernels.reset()
	var mu sync.Mutex
	addrs := map[byte]*byte{}
	RegisterFarm("answer.frame", answerKernel(addrs, &mu))
	pins := []int{0, 1, 1, 1, 1}
	cfg := Config{Nodes: 2, CoresPerNode: 1, FarmHeartbeat: time.Hour, Reliable: &mpi.ReliableConfig{AckTimeout: time.Second}}
	var res *FarmResult
	_, err := runGuarded(t, cfg, func(s *Session) (err error) {
		res, err = s.FarmOpts("answer.frame", autoTasks(len(pins)), FarmOptions{Pin: pins})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for task, out := range res.Results {
		r := serial.NewReader(out)
		for k := range 8 {
			if v := r.Int(); v != task+k {
				t.Fatalf("task %d: word %d reads %d", task, k, v)
			}
		}
		switch {
		case pins[task] == 0 && cap(out) != len(out):
			t.Errorf("master's answer: %d bytes in a buffer of %d", len(out), cap(out))
		case pins[task] != 0 && &out[0] != addrs[byte(task)]:
			t.Errorf("task %d: the master's result is not the worker's answer buffer", task)
		}
	}
}
