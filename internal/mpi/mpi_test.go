package mpi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// intC is the codec of the single ints the tests exchange.
var intC serial.Codec[int] = serial.Funcs[int]{Enc: (*serial.Writer).Int, Dec: (*serial.Reader).Int}

// sizes exercises non-power-of-two and degenerate cluster shapes, where
// binomial-tree bugs hide.
var sizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestSendRecvUserTags(t *testing.T) {
	err := Run(transport.Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 42, []byte("payload"))
		}
		m, err := c.Recv(0, 42)
		if err != nil {
			return err
		}
		if string(m.Payload) != "payload" {
			t.Errorf("payload = %q", m.Payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserTagRangeEnforced(t *testing.T) {
	err := Run(transport.Config{Ranks: 1}, func(c *Comm) error {
		if err := c.Send(0, MaxUserTag+1, nil); err == nil {
			return errors.New("oversized tag accepted by Send")
		}
		if _, err := c.Recv(0, MaxUserTag+5); err == nil {
			return errors.New("oversized tag accepted by Recv")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range sizes {
		var entered atomic.Int64
		err := Run(transport.Config{Ranks: n}, func(c *Comm) error {
			for round := range 3 {
				entered.Add(1)
				if err := c.Barrier(); err != nil {
					return err
				}
				// After the barrier, every rank must have entered this round.
				if got := entered.Load(); got < int64((round+1)*c.Size()) {
					t.Errorf("n=%d round %d: only %d entries visible after barrier", n, round, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range sizes {
		err := Run(transport.Config{Ranks: n}, func(c *Comm) error {
			got, err := BcastT(c, 0, serial.Ints(), []int{1, 2, 3, c.Size()})
			if err != nil {
				return err
			}
			if len(got) != 4 || got[3] != c.Size() {
				t.Errorf("n=%d rank %d: bcast got %v", n, c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	err := Run(transport.Config{Ranks: 4}, func(c *Comm) error {
		var v []int
		if c.Rank() == 2 {
			v = []int{9, 9}
		}
		got, err := BcastT(c, 2, serial.Ints(), v)
		if err != nil {
			return err
		}
		if len(got) != 2 || got[0] != 9 {
			t.Errorf("rank %d: got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, n := range sizes {
		err := Run(transport.Config{Ranks: n}, func(c *Comm) error {
			var parts [][]float64
			if c.Rank() == 0 {
				parts = make([][]float64, c.Size())
				for i := range parts {
					parts[i] = []float64{float64(i), float64(i) * 2}
				}
			}
			mine, err := ScatterT(c, 0, serial.F64s(), parts)
			if err != nil {
				return err
			}
			if mine[0] != float64(c.Rank()) {
				t.Errorf("rank %d scattered %v", c.Rank(), mine)
			}
			// Double locally, gather back.
			mine[0] *= 10
			all, err := GatherT(c, 0, serial.F64s(), mine)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				for i, p := range all {
					if p[0] != float64(i)*10 || p[1] != float64(i)*2 {
						t.Errorf("gathered[%d] = %v", i, p)
					}
				}
			} else if all != nil {
				t.Errorf("non-root rank %d got gather result", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestScatterWrongPartsCount(t *testing.T) {
	err := Run(transport.Config{Ranks: 1}, func(c *Comm) error {
		_, err := ScatterT(c, 0, intC, []int{1, 2})
		if err == nil {
			return errors.New("scatter accepted wrong part count")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumAllSizes(t *testing.T) {
	for _, n := range sizes {
		err := Run(transport.Config{Ranks: n}, func(c *Comm) error {
			v, ok, err := ReduceT(c, intC, c.Rank()+1, func(a, b int) int { return a + b })
			if err != nil {
				return err
			}
			want := c.Size() * (c.Size() + 1) / 2
			if c.Rank() == 0 {
				if !ok || v != want {
					t.Errorf("n=%d: reduce = %d ok=%v, want %d", n, v, ok, want)
				}
			} else if ok {
				t.Errorf("n=%d rank %d: ok true off root", n, c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReduceVectorAdd(t *testing.T) {
	// The tpacf pattern: reduce histograms by elementwise addition.
	err := Run(transport.Config{Ranks: 5}, func(c *Comm) error {
		mine := []int64{int64(c.Rank()), 1, 2}
		v, ok, err := ReduceT(c, serial.I64s(), mine, func(a, b []int64) []int64 {
			out := make([]int64, len(a))
			for i := range a {
				out[i] = a[i] + b[i]
			}
			return out
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 && ok {
			if v[0] != 10 || v[1] != 5 || v[2] != 10 {
				t.Errorf("vector reduce = %v", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	for _, n := range sizes {
		err := Run(transport.Config{Ranks: n}, func(c *Comm) error {
			v, err := AllreduceT(c, intC, 1, func(a, b int) int { return a + b })
			if err != nil {
				return err
			}
			if v != c.Size() {
				t.Errorf("n=%d rank %d: allreduce = %d", n, c.Rank(), v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestCollectivesInterleaveWithP2P(t *testing.T) {
	// A collective between point-to-point messages must not steal them.
	err := Run(transport.Config{Ranks: 3}, func(c *Comm) error {
		if c.Rank() == 1 {
			if err := c.Send(0, 5, []byte("before")); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := AllreduceT(c, intC, 1, func(a, b int) int { return a + b }); err != nil {
			return err
		}
		if c.Rank() == 0 {
			m, err := c.Recv(1, 5)
			if err != nil {
				return err
			}
			if string(m.Payload) != "before" {
				t.Errorf("p2p payload = %q", m.Payload)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanicsAndErrors(t *testing.T) {
	err := Run(transport.Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		// Rank 1 blocks on a message that never comes; the panic handler
		// closes the fabric and unblocks it.
		_, err := c.Recv(0, 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}

	sentinel := errors.New("rank failure")
	err = Run(transport.Config{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectivesUnderWireDelay(t *testing.T) {
	// Binomial trees must stay correct when message delivery is delayed
	// and can interleave arbitrarily across edges.
	cfg := transport.Config{
		Ranks: 5,
		Delay: &transport.DelayConfig{Latency: time.Millisecond, BytesPerSec: 5e6},
	}
	err := Run(cfg, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := BcastT(c, 0, serial.Ints(), []int{1, 2, 3})
		if err != nil {
			return err
		}
		if len(got) != 3 || got[2] != 3 {
			t.Errorf("rank %d: bcast = %v", c.Rank(), got)
		}
		v, err := AllreduceT(c, intC, c.Rank(), func(a, b int) int { return a + b })
		if err != nil {
			return err
		}
		if v != 0+1+2+3+4 {
			t.Errorf("rank %d: allreduce = %d", c.Rank(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankSize(t *testing.T) {
	seen := make([]atomic.Bool, 3)
	err := Run(transport.Config{Ranks: 3}, func(c *Comm) error {
		if c.Size() != 3 {
			t.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("rank %d never ran", i)
		}
	}
}
