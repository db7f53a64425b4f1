package eden

import (
	"slices"
	"testing"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// trafficTasks is the fixed input of the traffic pins: task i is i float64s,
// so its encoding is 8+8i bytes and each rank's byte count names the tasks
// it received.
func trafficTasks() [][]byte {
	tasks := make([][]byte, 10)
	for i := range tasks {
		tasks[i] = serial.Marshal(serial.F64s(), make([]float64, i))
	}
	return tasks
}

func checkTraffic(t *testing.T, label string, st transport.Stats, msgs int64, sent, recv []int64) {
	t.Helper()
	if st.Messages != msgs || !slices.Equal(st.SentBytes, sent) || !slices.Equal(st.RecvBytes, recv) {
		t.Fatalf("%s: messages %d sent %v recv %v, want %d %v %v",
			label, st.Messages, st.SentBytes, st.RecvBytes, msgs, sent, recv)
	}
}

// TestParMapTrafficPerRank pins which rank receives which task of the flat
// skeleton, and every frame's size. A spawn frame is the length-prefixed
// process name and input, 16+len(name)+len(input) bytes: 32+8i for task i
// of "t.sumvec". A result frame is an ok byte and the length-prefixed output,
// 9+8 = 17 bytes for one float64. Shutdown frames are empty. Task i runs on
// rank i%8, so rank 1 takes tasks 1 and 9 and the master keeps 0 and 8.
func TestParMapTrafficPerRank(t *testing.T) {
	st, err := Run(Config{Processes: 8, ProcsPerNode: 2}, func(m *Master) error {
		_, err := ParMap(m, "t.sumvec", trafficTasks())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 spawns, 8 results, 7 shutdowns.
	checkTraffic(t, "flat", st, 23,
		[]int64{552, 34, 17, 17, 17, 17, 17, 17},
		[]int64{136, 144, 48, 56, 64, 72, 80, 88})
}

// TestTwoLevelParMapTrafficPerRank pins the two-level skeleton's route: the
// ten tasks split 3,3,2,2 over the node leaders 0, 2, 4 and 6, and each
// leader keeps its bundle's even positions and spawns the odd ones on the
// next rank (tasks 1, 4, 7 and 9). A bundle is the inner name (16 bytes), a
// count (8) and each task length-prefixed (16+8i), spawned under
// "eden.leader" (19 bytes of name, 8 of prefix): 195, 187 and 219 bytes for
// nodes 1–3. A leader answers with an ok byte and the length-prefixed list
// of its results, 17+16n bytes for n tasks.
func TestTwoLevelParMapTrafficPerRank(t *testing.T) {
	st, err := Run(Config{Processes: 8, ProcsPerNode: 2}, func(m *Master) error {
		_, err := TwoLevelParMap(m, "t.sumvec", trafficTasks())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 bundles, 4 sibling spawns, 4 sibling results, 3 leader results, 7
	// shutdowns.
	checkTraffic(t, "two-level", st, 21,
		[]int64{641, 17, 129, 17, 137, 17, 153, 17},
		[]int64{180, 40, 212, 64, 204, 88, 236, 104})
}
