// Primes: a distributed irregular pipeline — the class of loop the paper's
// hybrid iterators exist for. Each node filters its slice of candidates
// through a fused filter (no counting pass, no temporary candidate list),
// packs its survivors with a collector, and the master concatenates
// sections in order. The number of outputs per node is only known at run
// time, which is exactly what defeats indexer-only frameworks (paper §1).
//
//	go run ./examples/primes
package main

import (
	"fmt"
	"log"

	"triolet/internal/cluster"
	"triolet/internal/core"
	"triolet/internal/iter"
	"triolet/internal/serial"
	"triolet/internal/trace"
)

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// primesOp: the registered distributed kernel. The iterator pipeline
// filter(isPrime, candidates) fuses into each node's pack loop.
var primesOp = core.NewFlatMap(
	"primes.sieve",
	serial.Ints(),
	serial.Unit(),
	serial.Ints(),
	func(n *cluster.Node, candidates []int, _ struct{}) ([]int, error) {
		it := iter.LocalPar(iter.Filter(isPrime, iter.FromSlice(candidates)))
		return core.CollectLocal(n.Pool, it, 512), nil
	},
	nil,
)

func main() {
	const limit = 200_000
	candidates := make([]int, limit)
	for i := range candidates {
		candidates[i] = i
	}

	tracer := trace.New()
	var primes []int
	stats, err := cluster.Run(cluster.Config{Nodes: 4, CoresPerNode: 2, Tracer: tracer},
		func(s *cluster.Session) error {
			out, err := primesOp.Run(s, core.SliceSource(candidates), struct{}{})
			primes = out
			return err
		})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("primes below %d: %d (last few: %v)\n", limit, len(primes), primes[len(primes)-4:])

	// Sequential cross-check through the same fused pipeline.
	seq := iter.ToSlice(iter.Filter(isPrime, iter.FromSlice(candidates)))
	if len(seq) != len(primes) {
		log.Fatalf("distributed %d primes, sequential %d", len(primes), len(seq))
	}
	for i := range seq {
		if seq[i] != primes[i] {
			log.Fatalf("order differs at %d", i)
		}
	}
	fmt.Println("distributed output equals sequential output, element for element")
	fmt.Printf("fabric: %d messages, %.1f KB (candidate slices out, packed primes back)\n",
		stats.Messages, float64(stats.Bytes)/1024)
}
