// Package cluster is the virtual cluster runtime: it launches N simulated
// nodes (goroutine groups), gives each one an MPI communicator over the
// shared fabric and a work-stealing thread pool for its cores, and runs a
// master/worker session on top — the two-level architecture of paper §3.4
// (message passing across nodes, threads within a node).
//
// The programming model mirrors Triolet's: a single master program (rank 0)
// runs the user's sequential-looking code, and parallel skeletons
// transparently ship work to the other nodes. Go closures cannot cross the
// serialization boundary, so cross-node code is named: worker-side kernel
// functions are registered once (RegisterWorker) and invoked by name —
// the moral equivalent of Triolet's serialized closures, under the SPMD
// assumption that every node runs the same binary.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"triolet/internal/mpi"
	"triolet/internal/sched"
	"triolet/internal/serial"
	"triolet/internal/trace"
	"triolet/internal/transport"
)

// Config describes the virtual cluster.
type Config struct {
	// Nodes is the number of simulated cluster nodes.
	Nodes int
	// CoresPerNode is each node's thread-pool width.
	CoresPerNode int
	// Tracer, when non-nil, records per-rank phase spans for the whole
	// run (see internal/trace). Skeletons annotate their scatter, kernel,
	// and reduce phases.
	Tracer *trace.Tracer
	// NetDelay, when non-nil, makes the fabric hold each message for
	// latency + size/bandwidth so real executions pay genuine
	// communication time (see transport.DelayConfig).
	NetDelay *transport.DelayConfig
	// Fault, when non-nil, enables deterministic fault injection on the
	// fabric: seeded drop/duplicate/reorder/corrupt/delay probabilities
	// plus pause and crash schedules (see transport.FaultConfig). A
	// faulty fabric needs Reliable set for sessions to survive it.
	Fault *transport.FaultConfig
	// Reliable, when non-nil, runs every rank's communicator in
	// acknowledged-delivery mode (sequence numbers, checksums, retry
	// with backoff, rank-loss detection; see mpi.ReliableConfig) and
	// switches kernel dispatch from the broadcast tree to direct
	// master→worker control messages, so a lost rank degrades the
	// session instead of wedging the tree.
	Reliable *mpi.ReliableConfig
	// FarmHeartbeat is the interval at which farm workers send liveness
	// beats to the master while a farm kernel is active (0 = 1ms). It is
	// the one liveness setting: the master retires a worker silent for
	// heartbeatMisses (500) intervals. Both sides read this config under
	// the SPMD assumption that every node runs the same binary.
	FarmHeartbeat time.Duration
	// Clock, when non-nil, replaces the fabric's time source (see
	// transport.Clock). The reliable layer's retry backoff and coalesce
	// deadlines read it, so tests can drive flush timing deterministically.
	Clock transport.Clock
}

// TotalCores reports Nodes × CoresPerNode.
func (c Config) TotalCores() int { return c.Nodes * c.CoresPerNode }

func (c Config) validate() error {
	if c.Nodes <= 0 || c.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: invalid config %+v", c)
	}
	// An overflowed retirement timeout would put every expiry in the past.
	if c.FarmHeartbeat < 0 || c.FarmHeartbeat > math.MaxInt64/heartbeatMisses {
		return fmt.Errorf("cluster: FarmHeartbeat %v outside [0, %v]", c.FarmHeartbeat, time.Duration(math.MaxInt64/heartbeatMisses))
	}
	return nil
}

// Node bundles one rank's services: its communicator, its thread pool and
// its segment store.
type Node struct {
	Comm   *mpi.Comm
	Pool   *sched.Pool
	Tracer *trace.Tracer
	// Segs holds what kernels leave resident on this node between tasks, so
	// that a run's next task for a segment ships only what the node lacks.
	// Only the goroutine running the node's kernels touches it; nil until the
	// first kernel stores something, it dies with the session.
	Segs map[SegKey]any
	cfg  Config
	// The last Answer's buffer, written by answerW, with answerHead bytes of
	// room in front for the frame's heads (0 on the master).
	answer     []byte
	answerHead int
	answerW    serial.Writer
}

// SegKey names one resident segment of a distributed value: the kernel that
// owns it, the run of that kernel, the segment's index in the run's partition.
type SegKey struct {
	Kernel   string
	Run, Seg int
}

// Phase opens a trace span named phase on this node and returns its
// closer. With no tracer attached it is a no-op.
func (n *Node) Phase(phase string) func() { return n.Tracer.Begin(n.Rank(), phase) }

// Rank reports this node's rank.
func (n *Node) Rank() int { return n.Comm.Rank() }

// Nodes reports the cluster size.
func (n *Node) Nodes() int { return n.Comm.Size() }

// Cores reports this node's core count.
func (n *Node) Cores() int { return n.cfg.CoresPerNode }

// IsRoot reports whether this node is the master (rank 0).
func (n *Node) IsRoot() bool { return n.Comm.Rank() == 0 }

// Answer returns a writer for a farm kernel's answer of size bytes. On a worker
// its buffer is the frame that carries the answer, valid until the next Answer:
// returned, its bytes travel with no copy, and the kernel must not write them
// again. On the master, whose answers never travel, it is an exact plain writer.
func (n *Node) Answer(size int) *serial.Writer {
	if n.answerHead == 0 {
		return serial.NewWriter(size)
	}
	n.answer = make([]byte, n.answerHead, n.answerHead+size+mpi.FrameTail)
	n.answerW = *serial.WriterOn(n.answer[n.answerHead:])
	return &n.answerW
}

// Worker is a node-side kernel body. It runs on every non-master node when
// the master invokes the kernel's name; the matching master-side logic runs
// inline on rank 0. Worker and master sides communicate through the node's
// communicator (scatter/bcast/reduce collectives rooted at 0).
type Worker func(n *Node) error

// kernels is a process-wide table of named kernel bodies. Kernels are
// registered once at init time, like Triolet's compiled closure table;
// registering a name twice panics, even with an identical body, to surface
// accidental name collisions early.
type kernels[K any] struct {
	what string
	mu   sync.RWMutex
	m    map[string]K
}

func (t *kernels[K]) register(name string, k K) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate %s %q", t.what, name))
	}
	if t.m == nil {
		t.m = map[string]K{}
	}
	t.m[name] = k
}

func (t *kernels[K]) lookup(name string) (K, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k, ok := t.m[name]
	return k, ok
}

// reset empties the table (tests only).
func (t *kernels[K]) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = nil
}

var workerKernels = kernels[Worker]{what: "kernel"}

// RegisterWorker installs the worker-side body for a named kernel; see
// kernels for the registration rules.
func RegisterWorker(name string, w Worker) { workerKernels.register(name, w) }

// Session is the master's handle for invoking distributed kernels. It
// exists only on rank 0.
type Session struct {
	node   *Node
	fabric *transport.Fabric
	// farmRuns counts this session's farm calls; each stamps its frames
	// with its number (see Session.FarmOpts).
	farmRuns int
}

// Node returns the master's node services (rank 0's communicator and pool);
// master-side kernel logic runs against it.
func (s *Session) Node() *Node { return s.node }

// Config reports the cluster configuration.
func (s *Session) Config() Config { return s.node.cfg }

// Fabric exposes the underlying fabric for traffic statistics.
func (s *Session) Fabric() *transport.Fabric { return s.fabric }

const shutdownName = "\x00shutdown"

// ctlTag is the reserved user tag for direct master→worker control
// messages (kernel dispatch and shutdown) in reliable mode. Applications
// must not send on it.
const ctlTag = mpi.MaxUserTag

// Invoke starts the named kernel on every worker node and returns once the
// dispatch is out; the caller then runs the master side of the kernel
// against s.Node(). Master side and worker sides must execute a matching
// collective sequence or the session deadlocks — same contract as MPI.
//
// In reliable mode a worker that was already lost makes Invoke fail with a
// RankLostError-derived error: collective kernels need full membership, so
// Invoke — and only Invoke — waits for every dispatch to be acknowledged
// (mpi.Comm.Flush). Use Farm for work that should survive losing ranks.
func (s *Session) Invoke(name string) error {
	if _, ok := workerKernels.lookup(name); !ok {
		return fmt.Errorf("cluster: kernel %q not registered", name)
	}
	lost, err := s.dispatch(name)
	if err == nil {
		var flushed []int
		flushed, err = s.node.Comm.Flush(s.node.Comm.Context())
		lost = append(lost, flushed...)
	}
	if err != nil {
		return fmt.Errorf("cluster: invoke %q: %w", name, err)
	}
	if len(lost) > 0 {
		slices.Sort(lost)
		return fmt.Errorf("cluster: invoke %q: workers %v: %w", name, slices.Compact(lost), mpi.ErrRankLost)
	}
	return nil
}

// dispatch sends a control string to every worker — the other side of
// nextKernel — not waiting for acknowledgements, and returns the workers the
// fabric reports crashed. Without the reliable layer it is a broadcast; with
// it, direct sends, so one dead rank cannot wedge a subtree of the tree.
func (s *Session) dispatch(name string) (lost []int, err error) {
	comm := s.node.Comm
	if s.node.cfg.Reliable == nil {
		_, err := mpi.BcastT(comm, 0, stringCodec(), name)
		return nil, err
	}
	for dst := 1; dst < s.node.Nodes(); dst++ {
		err := comm.Send(dst, ctlTag, []byte(name))
		switch {
		case err == nil:
		case s.fabric.Crashed(dst) || errors.Is(err, transport.ErrCrashed):
			lost = append(lost, dst)
		case errors.Is(err, mpi.ErrRankLost):
			// A loss of earlier frames, reported late. This one is on the
			// wire all the same.
		default:
			return lost, err
		}
	}
	return lost, nil
}

// Run launches the virtual cluster, executes master on rank 0 with a
// Session, runs kernel-dispatch loops on all other ranks, and tears
// everything down. Fabric traffic statistics from the run are returned.
func Run(cfg Config, master func(s *Session) error) (transport.Stats, error) {
	return RunCtx(context.Background(), cfg, master)
}

// RunCtx is Run under a context. The context is attached to every rank's
// communicator, so cancelling it unwinds the whole session promptly: each
// blocked send/receive/collective returns ctx.Err(), no rank wedges, and
// RunCtx returns once every node goroutine has exited.
func RunCtx(ctx context.Context, cfg Config, master func(s *Session) error) (transport.Stats, error) {
	if err := cfg.validate(); err != nil {
		return transport.Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.FarmHeartbeat == 0 {
		cfg.FarmHeartbeat = defaultFarmHeartbeat
	}
	// Communicators, and the helpers living with them (mpi.Comm.Serving), end with the run.
	ctx, endRun := context.WithCancel(ctx)
	defer endRun()
	fabric := transport.New(transport.Config{
		Ranks: cfg.Nodes,
		Delay: cfg.NetDelay,
		Fault: cfg.Fault,
		Clock: cfg.Clock,
	})
	defer fabric.Close()

	errs := make([]error, cfg.Nodes)
	// Teardown linger: a rank that finished cleanly flushes its reliable
	// endpoint — sends are buffered, and its last ones may still be waiting
	// for a retransmission — and then keeps pumping it, in a receive nothing
	// satisfies, until the last rank is through, so a peer whose final ack was
	// dropped is re-acked instead of retransmitting into silence. Failed and
	// crashed ranks do neither.
	var running atomic.Int32
	running.Store(int32(cfg.Nodes))
	lingerCtx, lastOut := context.WithCancel(ctx)
	defer lastOut()
	var wg sync.WaitGroup
	for r := range cfg.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm := newComm(fabric, r, cfg)
			comm.SetContext(ctx)
			node := &Node{
				Comm:   comm,
				Pool:   sched.NewPool(cfg.CoresPerNode),
				Tracer: cfg.Tracer,
				cfg:    cfg,
			}
			defer node.Pool.Close()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("cluster: node %d panicked: %v", r, p)
					fabric.Close()
				}
			}()
			if r == 0 {
				s := &Session{node: node, fabric: fabric}
				errs[0] = masterMain(s, master)
			} else {
				errs[r] = workerMain(node)
			}
			if errs[r] != nil && !errors.Is(errs[r], transport.ErrCrashed) {
				// A failed rank aborts the whole job (MPI_Abort
				// semantics): peers blocked in collectives unblock with
				// ErrClosed rather than hanging on the dead rank. A rank
				// killed by fault injection is different — that death is
				// the experiment, and surviving it is the runtime's job,
				// so the fabric stays up for everyone else.
				fabric.Close()
			}
			if errs[r] == nil {
				comm.Flush(ctx) //nolint:errcheck // a peer lost, or a run cancelled, at this point costs nothing any more
			}
			if running.Add(-1) == 0 {
				lastOut()
			} else if errs[r] == nil && cfg.Reliable != nil {
				comm.RecvCtx(lingerCtx, r, ctlTag) //nolint:errcheck // ends by cancellation
			}
		}()
	}
	wg.Wait()
	stats := fabric.Stats()
	return stats, joinErrs(errs)
}

// newComm builds one rank's communicator according to the cluster config.
func newComm(fabric *transport.Fabric, rank int, cfg Config) *mpi.Comm {
	if cfg.Reliable == nil {
		return mpi.NewComm(fabric, rank)
	}
	rc := *cfg.Reliable
	if rc.Tracer == nil {
		rc.Tracer = cfg.Tracer
	}
	return mpi.NewReliableComm(fabric, rank, rc)
}

func masterMain(s *Session, master func(*Session) error) error {
	if err := master(s); err != nil {
		// A master-side failure may have desynchronized the collective
		// sequence, so an orderly shutdown broadcast could deadlock; tear
		// the fabric down instead, which unblocks every worker with
		// ErrClosed.
		s.fabric.Close()
		return err
	}
	// Shutdown tolerates ranks lost during the run.
	_, err := s.dispatch(shutdownName)
	return err
}

func workerMain(n *Node) error {
	for {
		name, err := nextKernel(n)
		if err != nil {
			return err
		}
		if name == shutdownName {
			return nil
		}
		w, ok := workerKernels.lookup(name)
		if name == muxKernelName {
			w, ok = muxWorkerMain, true
		}
		if !ok {
			return fmt.Errorf("cluster: node %d: unknown kernel %q", n.Rank(), name)
		}
		if err := w(n); err != nil {
			return fmt.Errorf("cluster: node %d: kernel %q: %w", n.Rank(), name, err)
		}
	}
}

// nextKernel waits for the master's next dispatch: a control message in
// reliable mode, a broadcast otherwise.
func nextKernel(n *Node) (string, error) {
	if n.cfg.Reliable != nil {
		m, err := n.Comm.Recv(0, ctlTag)
		if err != nil {
			return "", err
		}
		return string(m.Payload), nil
	}
	return mpi.BcastT(n.Comm, 0, stringCodec(), "")
}

func stringCodec() serial.Codec[string] {
	return serial.Funcs[string]{
		Enc: func(w *serial.Writer, v string) { w.String(v) },
		Dec: func(r *serial.Reader) string { return r.String() },
	}
}

func joinErrs(errs []error) error {
	// A rank killed by fault injection is a simulated process death, not a
	// job failure: the session's outcome is whatever the master reported
	// (success for a farm that reassigned the lost rank's tasks, a
	// RankLostError for a collective that needed it).
	kept := make([]error, 0, len(errs))
	for _, err := range errs {
		if err != nil && !errors.Is(err, transport.ErrCrashed) {
			kept = append(kept, err)
		}
	}
	return errors.Join(kept...)
}
