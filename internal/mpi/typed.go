package mpi

import (
	"errors"
	"fmt"
	"sync"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// BcastT broadcasts a typed value from root to all ranks. Root gets v back
// as is, by reference: it never crosses the codec, and only the bytes bound
// for peers are marshalled. That payload is freshly allocated and never
// touched again, so it travels the shared (zero-copy) wire path, and every
// other rank decodes a view of it (serial.UnmarshalView) that each rank the
// tree forwarded it to shares. The result is read-only on every rank.
func BcastT[T any](c *Comm, root int, codec serial.Codec[T], v T) (T, error) {
	if c.Rank() != root {
		out, err := c.bcastPayload(root, nil, true)
		if err != nil {
			var zero T
			return zero, err
		}
		return serial.UnmarshalView(codec, out)
	}
	var payload []byte
	if c.Size() > 1 {
		payload = serial.Marshal(codec, v)
	}
	_, err := c.bcastPayload(root, payload, true)
	return v, err
}

// ScatterT sends parts[i] to rank i (typed); only root supplies parts.
// Root's own part is returned by reference (it shares parts[root]'s
// storage, as MPI_IN_PLACE leaves the root's block where it is); only the
// parts bound for peers are marshalled, and a peer's part is a view of the
// bytes that arrived. Either way the part is read-only.
func ScatterT[T any](c *Comm, root int, codec serial.Codec[T], parts []T) (T, error) {
	var raw [][]byte
	if c.Rank() == root {
		if len(parts) != c.Size() {
			var zero T
			return zero, fmt.Errorf("mpi: scatter with %d parts for %d ranks", len(parts), c.Size())
		}
		raw = make([][]byte, len(parts))
		for i, p := range parts {
			if i != root {
				raw[i] = serial.Marshal(codec, p)
			}
		}
	}
	mine, err := c.scatterPayload(root, raw, true)
	if err != nil {
		var zero T
		return zero, err
	}
	if c.Rank() == root {
		return parts[root], nil
	}
	return serial.UnmarshalView(codec, mine)
}

// GatherT collects a typed value from every rank at root; the result is
// indexed by rank at root and nil elsewhere. Root's own entry is mine by
// reference: only peers marshal, and root decodes what they sent as views
// of the bytes that arrived. The result is read-only.
func GatherT[T any](c *Comm, root int, codec serial.Codec[T], mine T) ([]T, error) {
	var payload []byte
	if c.Rank() != root {
		payload = serial.Marshal(codec, mine)
	}
	raw, err := c.gatherPayload(root, payload, true)
	if err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, nil
	}
	out := make([]T, len(raw))
	for i, b := range raw {
		if i == root {
			out[i] = mine
			continue
		}
		out[i], err = serial.UnmarshalView(codec, b)
		if err != nil {
			return nil, fmt.Errorf("mpi: gather decode rank %d: %w", i, err)
		}
	}
	return out, nil
}

// ReduceT folds every rank's typed value to rank 0 with the associative
// operator op, up a binomial tree; ok is true only at rank 0. A rank decodes
// each child once, as a read-only view of its bytes, folds acc = op(acc,
// child) from acc = mine, children in increasing distance, and marshals once
// to send up. op may write its first argument, which is always mine or an
// earlier result of op; mine is never copied, so on one rank it is mine.
func ReduceT[T any](c *Comm, codec serial.Codec[T], mine T, op func(T, T) T) (T, bool, error) {
	var zero T
	ctx := c.Context()
	tag := c.nextTag()
	rank, size := c.Rank(), c.Size()
	acc := mine
	for dist := 1; dist < size; dist <<= 1 {
		if rank&dist != 0 {
			return zero, false, c.send(ctx, rank-dist, tag, nil, serial.Marshal(codec, acc), true)
		}
		if peer := rank + dist; peer < size {
			m, err := c.recvMsg(ctx, peer, tag)
			if err != nil {
				return zero, false, err
			}
			child, err := serial.UnmarshalView(codec, m.Payload)
			if err != nil {
				return zero, false, fmt.Errorf("mpi: reduce decode rank %d: %w", peer, err)
			}
			acc = op(acc, child)
		}
	}
	return acc, rank == 0, nil
}

// AllreduceT is ReduceT followed by a broadcast of the result, so every
// rank returns the reduction.
func AllreduceT[T any](c *Comm, codec serial.Codec[T], mine T, op func(T, T) T) (T, error) {
	v, ok, err := ReduceT(c, codec, mine, op)
	if err != nil {
		var zero T
		return zero, err
	}
	if !ok {
		var zero T
		v = zero
	}
	return BcastT(c, 0, codec, v)
}

// Run launches fn on every rank of a fresh fabric, one goroutine per rank
// (the SPMD entry point used by tests and the cluster runtime). It waits
// for all ranks and returns the joined errors. The fabric is closed on
// return, unblocking any stragglers.
func Run(cfg transport.Config, fn func(*Comm) error) error {
	f := transport.New(cfg)
	defer f.Close()
	errs := make([]error, cfg.Ranks)
	var wg sync.WaitGroup
	for r := range cfg.Ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
					f.Close() // unblock peers waiting on this rank
				}
			}()
			errs[r] = fn(NewComm(f, r))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
