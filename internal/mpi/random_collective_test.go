package mpi

import (
	"testing"
	"testing/quick"

	"triolet/internal/transport"
)

// Generative SPMD testing: every rank executes the same random sequence of
// collectives; outcomes are compared to the sequential semantics. This
// stresses the sequence-number tagging that keeps concurrent collectives
// from interfering and the binomial trees at arbitrary sizes.

type collOp struct {
	Kind uint8
	Val  uint8
}

func TestRandomCollectiveSequences(t *testing.T) {
	prop := func(size0 uint8, ops []collOp) bool {
		size := int(size0%7) + 1
		if len(ops) > 8 {
			ops = ops[:8]
		}
		// Sequential expectations per op.
		type expectation struct {
			kind string
			want []int
		}
		expect := make([]expectation, len(ops))
		for i, op := range ops {
			switch op.Kind % 4 {
			case 0: // bcast of Val from root
				expect[i] = expectation{kind: "bcast", want: []int{int(op.Val)}}
			case 1: // allreduce sum of (rank + Val)
				total := 0
				for r := 0; r < size; r++ {
					total += r + int(op.Val)
				}
				expect[i] = expectation{kind: "allreduce", want: []int{total}}
			case 2: // scatter parts[i] = i*Val, then gather back doubled
				want := make([]int, size)
				for r := 0; r < size; r++ {
					want[r] = 2 * r * int(op.Val)
				}
				expect[i] = expectation{kind: "scattergather", want: want}
			default: // barrier
				expect[i] = expectation{kind: "barrier"}
			}
		}

		ok := true
		err := Run(transport.Config{Ranks: size}, func(c *Comm) error {
			for i, op := range ops {
				switch expect[i].kind {
				case "bcast":
					v, err := BcastT(c, 0, intC, int(op.Val))
					if err != nil {
						return err
					}
					if v != expect[i].want[0] {
						ok = false
					}
				case "allreduce":
					v, err := AllreduceT(c, intC, c.Rank()+int(op.Val),
						func(a, b int) int { return a + b })
					if err != nil {
						return err
					}
					if v != expect[i].want[0] {
						ok = false
					}
				case "scattergather":
					var parts []int
					if c.Rank() == 0 {
						parts = make([]int, size)
						for r := range parts {
							parts[r] = r * int(op.Val)
						}
					}
					mine, err := ScatterT(c, 0, intC, parts)
					if err != nil {
						return err
					}
					all, err := GatherT(c, 0, intC, 2*mine)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						for r, v := range all {
							if v != expect[i].want[r] {
								ok = false
							}
						}
					}
				case "barrier":
					if err := c.Barrier(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
