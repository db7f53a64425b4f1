package eden

import (
	"fmt"

	"triolet/internal/domain"
	"triolet/internal/serial"
)

// ParMap is Eden's flat map skeleton: inputs are dealt round-robin over all
// processes (the master evaluates its own share, as Eden's main process
// does) and results are collected in input order. Every process exchanges
// messages directly with the master — the communication bottleneck the
// paper's two-level rewrite works around (§4.1).
func ParMap(m *Master, name string, inputs [][]byte) ([][]byte, error) {
	return m.fanOut(name, inputs, m.cfg.Processes, 1)
}

// leaderName is the built-in node-leader process of the two-level skeleton.
const leaderName = "eden.leader"

func init() {
	RegisterProcess(leaderName, leaderBody)
}

// taskList is the codec of a leader's bundled tasks and of its results: a
// count, then each serialized value length-prefixed.
var taskList = serial.SliceOf[[]byte](serial.Funcs[[]byte]{Enc: (*serial.Writer).RawBytes, Dec: (*serial.Reader).RawBytes})

// nodeWidth is the number of processes per node.
func (c Config) nodeWidth() int {
	if c.ProcsPerNode == 0 {
		return c.Processes
	}
	return c.ProcsPerNode
}

// leaderBody deals a bundle of tasks (the inner process name, then the task
// list) round-robin over its node's processes, itself included, and returns
// their results as one list. Paper §4.1: "The main process distributes work
// to one process in each node, which further distributes work to other
// processes in the same node."
func leaderBody(p *Proc, in []byte) ([]byte, error) {
	r := serial.NewReader(in)
	name := r.String()
	tasks := taskList.Decode(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	results, err := p.fanOut(name, tasks, p.cfg.nodeWidth(), 1)
	if err != nil {
		return nil, err
	}
	return serial.Marshal(taskList, results), nil
}

// TwoLevelParMap is the paper's hand-written Eden improvement: the master
// ships one bundle per node to its leader process (the master leads node
// 0), which fans the tasks out within its node. Still no shared memory —
// every task's input is copied again from leader to worker process.
func TwoLevelParMap(m *Master, name string, inputs [][]byte) ([][]byte, error) {
	c := m.cfg.nodeWidth()
	nodes := m.cfg.Processes / c
	bundles := make([][]byte, nodes)
	for i, r := range domain.BlockPartition(len(inputs), nodes) {
		w := serial.NewWriter(64)
		w.String(name)
		taskList.Encode(w, inputs[r.Lo:r.Hi])
		bundles[i] = w.Bytes()
	}
	outs, err := m.fanOut(leaderName, bundles, nodes, c)
	if err != nil {
		return nil, err
	}
	results := make([][]byte, 0, len(inputs))
	for _, out := range outs {
		rs, err := serial.Unmarshal(taskList, out)
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
	}
	return results, nil
}

// Process is a declared process: its name and the codecs of its task and
// result, which its skeleton calls ship typed tasks through.
type Process[I, O any] struct {
	name string
	in   serial.Codec[I]
	out  serial.Codec[O]
}

// Declare registers body under name (once, at init) as the process that
// decodes a task with in, applies body and encodes the result with out.
func Declare[I, O any](name string, in serial.Codec[I], out serial.Codec[O], body func(I) O) Process[I, O] {
	RegisterProcess(name, func(_ *Proc, b []byte) ([]byte, error) {
		t, err := serial.Unmarshal(in, b)
		if err != nil {
			return nil, err
		}
		return serial.Marshal(out, body(t)), nil
	})
	return Process[I, O]{name, in, out}
}

// ParMap runs tasks with the flat skeleton.
func (d Process[I, O]) ParMap(m *Master, tasks []I) ([]O, error) {
	return d.run(ParMap, m, tasks)
}

// TwoLevelParMap runs tasks with the two-level skeleton.
func (d Process[I, O]) TwoLevelParMap(m *Master, tasks []I) ([]O, error) {
	return d.run(TwoLevelParMap, m, tasks)
}

// ParMapReduce maps tasks with the two-level skeleton and folds the results
// on the master — the map+reduce shape of tpacf's and cutcp's Eden ports.
// The master-side fold is itself a sequential bottleneck, which is one of
// the costs the paper attributes to Eden's flat result collection.
func (d Process[I, O]) ParMapReduce(m *Master, tasks []I, z O, combine func(O, O) O) (O, error) {
	outs, err := d.TwoLevelParMap(m, tasks)
	if err != nil {
		var zero O
		return zero, err
	}
	acc := z
	for _, o := range outs {
		acc = combine(acc, o)
	}
	return acc, nil
}

func (d Process[I, O]) run(skeleton func(*Master, string, [][]byte) ([][]byte, error), m *Master, tasks []I) ([]O, error) {
	raw := make([][]byte, len(tasks))
	for i, t := range tasks {
		raw[i] = serial.Marshal(d.in, t)
	}
	outs, err := skeleton(m, d.name, raw)
	if err != nil {
		return nil, err
	}
	res := make([]O, len(outs))
	for i, b := range outs {
		if res[i], err = serial.Unmarshal(d.out, b); err != nil {
			return nil, fmt.Errorf("eden: result %d: %w", i, err)
		}
	}
	return res, nil
}
