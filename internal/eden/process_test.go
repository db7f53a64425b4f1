package eden

import (
	"errors"
	"strings"
	"testing"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// intC is the codec of the single ints the tests exchange.
var intC serial.Codec[int] = serial.Funcs[int]{Enc: (*serial.Writer).Int, Dec: (*serial.Reader).Int}

func init() {
	// Test processes, registered once like production kernels.
	RegisterProcess("t.double", func(_ *Proc, in []byte) ([]byte, error) {
		v, err := serial.Unmarshal(intC, in)
		if err != nil {
			return nil, err
		}
		return serial.Marshal(intC, v*2), nil
	})
	RegisterProcess("t.sumvec", func(_ *Proc, in []byte) ([]byte, error) {
		xs, err := serial.Unmarshal(serial.F64s(), in)
		if err != nil {
			return nil, err
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return serial.Marshal(serial.F64C(), s), nil
	})
	RegisterProcess("t.fail", func(_ *Proc, in []byte) ([]byte, error) {
		return nil, errors.New("task exploded")
	})
}

func TestSpawnAwait(t *testing.T) {
	_, err := Run(Config{Processes: 3}, func(m *Master) error {
		if err := m.Spawn(1, "t.double", serial.Marshal(intC, 21)); err != nil {
			return err
		}
		out, err := m.Await(1)
		if err != nil {
			return err
		}
		v, err := serial.Unmarshal(intC, out)
		if err != nil {
			return err
		}
		if v != 42 {
			t.Errorf("result = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnInvalidRank(t *testing.T) {
	_, err := Run(Config{Processes: 2}, func(m *Master) error {
		if err := m.Spawn(0, "t.double", nil); err == nil {
			return errors.New("spawn on master accepted")
		}
		if err := m.Spawn(5, "t.double", nil); err == nil {
			return errors.New("spawn out of range accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownProcessReportsError(t *testing.T) {
	_, err := Run(Config{Processes: 2}, func(m *Master) error {
		if err := m.Spawn(1, "t.nonexistent", nil); err != nil {
			return err
		}
		_, err := m.Await(1)
		if err == nil || !strings.Contains(err.Error(), "unknown process") {
			t.Errorf("await err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProcessErrorSurfaces(t *testing.T) {
	_, err := Run(Config{Processes: 2}, func(m *Master) error {
		if err := m.Spawn(1, "t.fail", nil); err != nil {
			return err
		}
		_, err := m.Await(1)
		if err == nil || !strings.Contains(err.Error(), "task exploded") {
			t.Errorf("await err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParMapFlat(t *testing.T) {
	for _, procs := range []int{1, 2, 5, 8} {
		cfg := Config{Processes: procs}
		var got []int
		_, err := Run(cfg, func(m *Master) error {
			inputs := make([]int, 23)
			for i := range inputs {
				inputs[i] = i
			}
			out, err := Process[int, int]{"t.double", intC, intC}.ParMap(m, inputs)
			got = out
			return err
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("procs=%d: out[%d] = %d", procs, i, v)
			}
		}
	}
}

func TestTwoLevelParMap(t *testing.T) {
	for _, shape := range []Config{
		{Processes: 8, ProcsPerNode: 4},
		{Processes: 6, ProcsPerNode: 2},
		{Processes: 4, ProcsPerNode: 4},
		{Processes: 3, ProcsPerNode: 0}, // single node
	} {
		var got []int
		_, err := Run(shape, func(m *Master) error {
			inputs := make([]int, 31)
			for i := range inputs {
				inputs[i] = i * 3
			}
			out, err := Process[int, int]{"t.double", intC, intC}.TwoLevelParMap(m, inputs)
			got = out
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", shape, err)
		}
		for i, v := range got {
			if v != 6*i {
				t.Fatalf("%+v: out[%d] = %d", shape, i, v)
			}
		}
	}
}

func TestTwoLevelReducesMasterTraffic(t *testing.T) {
	// With bundles per node, the master exchanges messages with leaders
	// only: fewer master-touching messages than flat parMap's per-task
	// exchange.
	inputs := make([]float64, 64)
	mkTasks := func() [][]float64 {
		tasks := make([][]float64, 64)
		for i := range tasks {
			tasks[i] = inputs
		}
		return tasks
	}
	flatStats, err := Run(Config{Processes: 16, ProcsPerNode: 4}, func(m *Master) error {
		_, err := Process[[]float64, float64]{"t.sumvec", serial.F64s(), serial.F64C()}.ParMap(m, mkTasks())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	twoStats, err := Run(Config{Processes: 16, ProcsPerNode: 4}, func(m *Master) error {
		_, err := Process[[]float64, float64]{"t.sumvec", serial.F64s(), serial.F64C()}.TwoLevelParMap(m, mkTasks())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Master (rank 0) sends: flat sends 60 task messages; two-level sends 3
	// bundles (+ shutdowns in both).
	if twoStats.SentBytes[0] >= flatStats.SentBytes[0] {
		t.Fatalf("two-level master sent %d bytes, flat sent %d", twoStats.SentBytes[0], flatStats.SentBytes[0])
	}
}

func TestParMapReduce(t *testing.T) {
	_, err := Run(Config{Processes: 4, ProcsPerNode: 2}, func(m *Master) error {
		tasks := [][]float64{{1, 2}, {3}, {4, 5, 6}, {}}
		got, err := Process[[]float64, float64]{"t.sumvec", serial.F64s(), serial.F64C()}.ParMapReduce(m, tasks,
			0, func(a, b float64) float64 { return a + b })
		if err != nil {
			return err
		}
		if got != 21 {
			t.Errorf("reduce = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageBufferLimitFailsLikeSgemm(t *testing.T) {
	// The paper's §4.3 failure mode: data too large for Eden's runtime to
	// buffer.
	cfg := Config{Processes: 2, MaxMessageBytes: 1024}
	_, err := Run(cfg, func(m *Master) error {
		big := make([]float64, 10000)
		_, err := Process[[]float64, float64]{"t.sumvec", serial.F64s(), serial.F64C()}.ParMap(m, [][]float64{big, big})
		return err
	})
	if err == nil || !errors.Is(err, transport.ErrMessageTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestLeaderRejectsUnknownInnerProcess(t *testing.T) {
	// A two-level bundle naming an unregistered inner process must surface
	// a clear error through the leader, not hang.
	_, err := Run(Config{Processes: 4, ProcsPerNode: 2}, func(m *Master) error {
		_, err := TwoLevelParMap(m, "t.not-registered", [][]byte{serial.Marshal(intC, 1), serial.Marshal(intC, 2), serial.Marshal(intC, 3)})
		if err == nil {
			return errors.New("unknown inner process accepted")
		}
		if !strings.Contains(err.Error(), "unknown process") {
			return errors.New("wrong error: " + err.Error())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProcessPanicAbortsMachine(t *testing.T) {
	RegisterProcess("t.panic", func(*Proc, []byte) ([]byte, error) {
		panic("process exploded")
	})
	_, err := Run(Config{Processes: 2}, func(m *Master) error {
		if err := m.Spawn(1, "t.panic", nil); err != nil {
			return err
		}
		_, err := m.Await(1)
		return err
	})
	if err == nil {
		t.Fatal("panic in process not reported")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Processes: 0}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Run(Config{Processes: 4, ProcsPerNode: 3}, nil); err == nil {
		t.Fatal("non-dividing ProcsPerNode accepted")
	}
}

func TestMasterPanicReported(t *testing.T) {
	_, err := Run(Config{Processes: 2}, func(m *Master) error {
		panic("master died")
	})
	if err == nil || !strings.Contains(err.Error(), "master died") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateProcessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RegisterProcess("t.double", func(*Proc, []byte) ([]byte, error) { return nil, nil })
}

func TestRunLocal(t *testing.T) {
	_, err := Run(Config{Processes: 1}, func(m *Master) error {
		out, err := m.RunLocal("t.double", serial.Marshal(intC, 5))
		if err != nil {
			return err
		}
		v, _ := serial.Unmarshal(intC, out)
		if v != 10 {
			t.Errorf("RunLocal = %d", v)
		}
		if _, err := m.RunLocal("t.unknown", nil); err == nil {
			t.Error("unknown RunLocal accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
