package core

import (
	"fmt"

	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/mpi"
	"triolet/internal/serial"
)

// collective is the one distributed skeleton engine (paper §3.5): cut the
// task domain into one input slice per node, scatter the slices, broadcast
// the auxiliary value, run the kernel on every node, and collect the
// partials at the master — up a reduction tree when combine is set, by a
// rank-ordered gather otherwise. MapReduceOp, BuildArrayOp, Build2DOp and
// FlatMapOp are declarations over it: each says only how its source becomes
// parts and how the collected partials become its result.
//
// S is the per-node input slice, A the broadcast auxiliary value, P one
// node's partial result. The kernel reads its slice and aux by reference on
// the master and as views of the bytes that arrived on a worker, and must
// not write them on any rank; combine may write its first argument, which
// is always the node's own partial or an earlier result of combine, never
// its second.
type collective[S, A, P any] struct {
	name    string
	sCodec  serial.Codec[S]
	aCodec  serial.Codec[A]
	pCodec  serial.Codec[P]
	kernel  func(n *cluster.Node, slice S, aux A) (P, error)
	combine func(P, P) P // nil: gather
	// release, unless nil, gets a rank's partial once consumed — marshalled by
	// the gather on a worker, assembled by Run on the master — never on error.
	release func(*cluster.Node, P)
}

// newCollective registers the engine's worker side under name — the
// serialized identity of the kernel, standing in for Triolet's serialized
// closures — and returns the engine.
func newCollective[S, A, P any](
	name string,
	sCodec serial.Codec[S],
	aCodec serial.Codec[A],
	pCodec serial.Codec[P],
	kernel func(n *cluster.Node, slice S, aux A) (P, error),
	combine func(P, P) P,
) *collective[S, A, P] {
	c := &collective[S, A, P]{name: name, sCodec: sCodec, aCodec: aCodec, pCodec: pCodec,
		kernel: kernel, combine: combine}
	cluster.RegisterWorker(name, func(n *cluster.Node) error {
		var aux A
		_, err := c.body(n, nil, aux)
		return err
	})
	return c
}

// Name reports the kernel's registered name.
func (c *collective[S, A, P]) Name() string { return c.name }

// run is the master's entry: start the workers, then run the same body
// they do. cut yields the scatter's parts, one per node in rank order.
func (c *collective[S, A, P]) run(s *cluster.Session, cut func() []S, aux A) ([]P, error) {
	if err := s.Invoke(c.name); err != nil {
		return nil, err
	}
	return c.body(s.Node(), cut, aux)
}

// body is the skeleton every rank executes; master and workers differ only
// in what they feed the root-sided collectives (cut and aux are nil and
// zero off the root). cut runs inside the scatter span: computing the
// partition and extracting slices is part of what distributing the input
// costs. The partials come back indexed by rank at the root — a single
// combined value under a reduce — and nil elsewhere.
func (c *collective[S, A, P]) body(n *cluster.Node, cut func() []S, aux A) ([]P, error) {
	end := n.Phase("scatter")
	var parts []S
	if cut != nil {
		parts = cut()
	}
	mine, err := mpi.ScatterT(n.Comm, 0, c.sCodec, parts)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: %s scatter: %w", c.name, err)
	}
	end = n.Phase("bcast")
	aux, err = mpi.BcastT(n.Comm, 0, c.aCodec, aux)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: %s bcast: %w", c.name, err)
	}
	end = n.Phase("kernel")
	p, err := c.kernel(n, mine, aux)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: %s kernel: %w", c.name, err)
	}
	if c.combine == nil {
		end = n.Phase("gather")
		all, err := mpi.GatherT(n.Comm, 0, c.pCodec, p)
		end()
		if err != nil {
			return nil, fmt.Errorf("core: %s gather: %w", c.name, err)
		}
		if c.release != nil && !n.IsRoot() {
			c.release(n, p)
		}
		return all, nil
	}
	end = n.Phase("reduce")
	total, ok, err := mpi.ReduceT(n.Comm, c.pCodec, p, c.combine)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: %s reduce: %w", c.name, err)
	}
	if !ok {
		return nil, nil
	}
	return []P{total}, nil
}

// runSource is run for a one-dimensional skeleton, with the one cut every
// such skeleton makes: src's tasks are block-partitioned over the nodes,
// each node is sent its block's slice, and the partition comes back beside
// the partials.
func (c *collective[S, A, P]) runSource(s *cluster.Session, src DistSource[S], aux A) ([]P, domain.Partition, error) {
	var part domain.Partition
	out, err := c.run(s, func() []S {
		part = domain.BlockPartition(src.Tasks(), s.Node().Nodes())
		parts := make([]S, len(part))
		for i, r := range part {
			parts[i] = src.Slice(r)
		}
		return parts
	}, aux)
	return out, part, err
}
