package mpi

import (
	"fmt"
	"sync"

	"triolet/internal/transport"
)

// Nonblocking point-to-point operations. The paper's fastest
// C+MPI+OpenMP mri-q "used nonblocking, point-to-point messaging" (§4.2):
// the root posts all sends/receives, overlaps them with local compute, and
// waits at the end. Request is the MPI_Request analog.
//
// Isend completes immediately against the buffered fabric, in reliable mode
// too (the frame is in its peer's window; a full window blocks the call like
// a full MPI buffer would); its Request exists for symmetry and for code that
// waits on mixed request sets.
// Irecv runs the matching receive on a goroutine and parks the result in
// the Request.

// Request is a handle to an outstanding nonblocking operation.
type Request struct {
	mu      sync.Mutex
	done    chan struct{}
	msg     transport.Message
	err     error
	isRecv  bool
	started bool
}

// Wait blocks until the operation completes and returns the received
// message (receives) or a zero message (sends), plus the operation error.
func (r *Request) Wait() (transport.Message, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msg, r.err
}

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Isend starts a nonblocking send. The payload is copied by the fabric, so
// the caller's buffer is immediately reusable (MPI buffered-send
// semantics).
func (c *Comm) Isend(dst, tag int, payload []byte) *Request {
	r := &Request{done: make(chan struct{}), started: true}
	r.err = c.Send(dst, tag, payload)
	close(r.done)
	return r
}

// Irecv starts a nonblocking receive matching (src, tag). The match is
// performed by a helper goroutine; Wait joins it. As with blocking Recv,
// src may be transport.AnySource and tag transport.AnyTag, and the payload
// Wait returns is read-only.
//
// Concurrent Irecvs with overlapping match patterns race for messages the
// same way concurrent MPI receives do; receives with distinct (src, tag)
// patterns are independent.
func (c *Comm) Irecv(src, tag int) *Request {
	r := &Request{done: make(chan struct{}), isRecv: true, started: true}
	go func() {
		msg, err := c.Recv(src, tag)
		r.mu.Lock()
		r.msg = msg
		r.err = err
		r.mu.Unlock()
		close(r.done)
	}()
	return r
}

// WaitAll waits for every request and returns the first error encountered
// (continuing to drain the rest so no goroutine leaks).
func WaitAll(reqs []*Request) error {
	var first error
	for i, r := range reqs {
		if r == nil {
			if first == nil {
				first = fmt.Errorf("mpi: WaitAll: nil request at %d", i)
			}
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
