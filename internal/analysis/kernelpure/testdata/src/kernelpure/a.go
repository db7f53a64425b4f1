// Fixture for the kernelpure analyzer: function literals in kernel
// position (cluster.RegisterFarm, cluster.FarmFn conversions, exported
// iter entrypoints) checked for the four impurity classes.
package kernelfixture

import (
	"math/rand"
	"time"

	"triolet/internal/cluster"
	"triolet/internal/iter"
)

var counter int
var shared []int

func impureFarmKernel() {
	cluster.RegisterFarm("bad", func(n *cluster.Node, task []byte) ([]byte, error) {
		counter++              // want `kernelpure: kernel writes captured variable "counter"`
		if rand.Intn(2) == 0 { // want `kernelpure: kernel draws from the global math/rand source`
			return nil, nil
		}
		_ = time.Now() // want `kernelpure: kernel reads the wall clock \(time\.Now\)`
		return task, nil
	})
}

var _ = cluster.FarmFn(func(n *cluster.Node, task []byte) ([]byte, error) {
	shared = task2ints(task) // want `kernelpure: kernel writes captured variable "shared"`
	return task, nil
})

func task2ints([]byte) []int { return nil }

// A farm kernel's task is a read-only view of the frame that delivered it:
// every write to it, or through a slice of it, is flagged.
func taskWritingFarmKernel() {
	cluster.RegisterFarm("writes-task", func(n *cluster.Node, task []byte) ([]byte, error) {
		task[0] = 1          // want `kernelpure: farm kernel writes its task`
		task[1]++            // want `kernelpure: farm kernel writes its task`
		copy(task[2:], "ab") // want `kernelpure: farm kernel writes its task`
		body := task[4:]
		body[0] = 2 // want `kernelpure: farm kernel writes its task`
		var rest []byte
		rest = body[1:]
		copy(rest, task) // want `kernelpure: farm kernel writes its task`
		return task, nil
	})
}

// Reading the task, copying out of it, appending to it (a view's cap is its
// length, so append reallocates) and writing a copy are not writes to it.
var _ = cluster.FarmFn(func(_ *cluster.Node, task []byte) ([]byte, error) {
	first := task[0]
	first++
	out := make([]byte, len(task))
	copy(out, task)
	out[0] = first
	longer := append(task, first)
	longer[0] = 0
	return out, nil
})

// Kernels in other positions take no task.
func taskNotAFarmKernel(xs [][]byte) {
	_ = iter.Map(func(b []byte) []byte {
		b[0] = 0
		return b
	}, iter.FromSlice(xs))
}

func impureMapKernel(xs []int, weights map[int]int) iter.Iter[int] {
	return iter.Map(func(x int) int {
		shared[0] = x // want `kernelpure: kernel writes captured variable "shared"`
		total := 0
		for k, v := range weights { // want `kernelpure: kernel ranges over a map`
			total += k * v
		}
		return total
	}, iter.FromSlice(xs))
}

// Pure kernels: locals, parameters, a seeded per-task source, and value
// returns — nothing to report.
func pureKernels(xs []int) iter.Iter[int] {
	doubled := iter.Map(func(x int) int {
		local := []int{x, x}
		local[0]++
		return local[0] + local[1]
	}, iter.FromSlice(xs))
	return iter.Map(func(x int) int {
		r := rand.New(rand.NewSource(int64(x)))
		return x + r.Intn(3)
	}, doubled)
}

// A reduction accumulator parameter is the kernel's own state, not a
// captured variable.
func pureReduce(xs []int) int {
	return iter.Reduce(iter.FromSlice(xs), 0, func(a, x int) int {
		a += x
		return a
	})
}

// Writes to captured state outside kernel position are ordinary Go.
func notAKernel() {
	f := func() { counter++ }
	f()
}

// A deliberate exception carries an allow with its reason.
func allowedCapture(out []int, xs []int) {
	_ = iter.Map(func(x int) int {
		out[x] = x //lint:allow kernelpure out is indexed by task id so concurrent writes never collide
		return x
	}, iter.FromSlice(xs))
}
