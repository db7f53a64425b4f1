package eden

import (
	"errors"
	"fmt"
	"sync"

	"triolet/internal/serial"
	"triolet/internal/transport"
)

// Config describes an Eden machine: Processes ranks with no shared memory.
// On a cluster of N nodes with C cores each, Eden runs N×C processes; rank
// 0 is the master running the user's program.
type Config struct {
	// Processes is the total process count (nodes × cores).
	Processes int
	// ProcsPerNode groups processes into nodes for the two-level skeletons
	// (and for interpreting traffic in the performance model). 0 means all
	// processes are on one node.
	ProcsPerNode int
	// MaxMessageBytes caps fabric payloads, reproducing Eden's bounded
	// message buffer (0 = unlimited).
	MaxMessageBytes int
}

func (c Config) validate() error {
	if c.Processes <= 0 {
		return fmt.Errorf("eden: invalid config %+v", c)
	}
	if c.ProcsPerNode < 0 || (c.ProcsPerNode > 0 && c.Processes%c.ProcsPerNode != 0) {
		return fmt.Errorf("eden: ProcsPerNode %d does not divide Processes %d", c.ProcsPerNode, c.Processes)
	}
	return nil
}

// Proc is the context an Eden process body runs in: its rank, the machine
// shape, and its fabric endpoint, through which the master and the node
// leaders of the two-level skeleton spawn work on other processes.
type Proc struct {
	cfg Config
	ep  *transport.Endpoint
}

// Master is process 0, which runs the user's program and, as Eden's main
// process does, evaluates a share of every skeleton's tasks itself.
type Master struct{ Proc }

// Rank reports the process's rank.
func (p *Proc) Rank() int { return p.ep.Rank() }

// Config reports the machine shape.
func (p *Proc) Config() Config { return p.cfg }

// Spawn ships input to another process, which applies the named body. The
// result arrives asynchronously; collect it with Await. Spawning serializes
// the entire input — Eden's whole-value copy semantics.
func (p *Proc) Spawn(dst int, name string, input []byte) error {
	if dst < 0 || dst >= p.cfg.Processes || dst == p.ep.Rank() {
		return fmt.Errorf("eden: spawn on rank %d from %d", dst, p.ep.Rank())
	}
	w := serial.NewWriter(len(input) + len(name) + 16)
	w.String(name)
	w.RawBytes(input)
	return p.ep.Send(dst, tagSpawn, w.Bytes())
}

// Await blocks for one result from process rank src.
func (p *Proc) Await(src int) ([]byte, error) {
	msg, err := p.ep.Recv(src, tagResult)
	if err != nil {
		return nil, err
	}
	r := serial.NewReader(msg.Payload)
	if ok := r.Bool(); !ok {
		return nil, fmt.Errorf("eden: process %d failed: %s", src, r.String())
	}
	out := r.RawBytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// RunLocal evaluates the named body on p itself.
func (p *Proc) RunLocal(name string, input []byte) ([]byte, error) {
	body, err := lookupProcess(name)
	if err != nil {
		return nil, err
	}
	return body(p, input)
}

// fanOut deals tasks round-robin over width processes stride ranks apart,
// starting with p, which evaluates its own share, and collects the results
// in task order. Every remote task is spawned before p evaluates any.
func (p *Proc) fanOut(name string, tasks [][]byte, width, stride int) ([][]byte, error) {
	body, err := lookupProcess(name)
	if err != nil {
		return nil, err
	}
	for i, task := range tasks {
		if off := i % width; off != 0 {
			if err := p.Spawn(p.Rank()+off*stride, name, task); err != nil {
				return nil, fmt.Errorf("eden: spawn task %d: %w", i, err)
			}
		}
	}
	results := make([][]byte, len(tasks))
	for i, task := range tasks {
		if off := i % width; off == 0 {
			results[i], err = body(p, task)
		} else {
			results[i], err = p.Await(p.Rank() + off*stride)
		}
		if err != nil {
			return nil, fmt.Errorf("eden: task %d: %w", i, err)
		}
	}
	return results, nil
}

// Body is an untyped process body: serialized input in, serialized output
// out, mirroring an Eden process abstraction whose input and output
// channels carry fully serialized values. The Proc context allows
// forwarding.
type Body func(p *Proc, in []byte) ([]byte, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Body{}
)

// RegisterProcess installs a named process body (once, at init).
func RegisterProcess(name string, body Body) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("eden: duplicate process %q", name))
	}
	registry[name] = body
}

func lookupProcess(name string) (Body, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if body, ok := registry[name]; ok {
		return body, nil
	}
	return nil, fmt.Errorf("eden: unknown process %q", name)
}

// Message tags of the process protocol.
const (
	tagSpawn  = 1 // master→process: name-prefixed input
	tagResult = 2 // process→master: output
	tagDone   = 3 // master→process: shutdown
)

// Run boots an Eden machine and executes master on rank 0. All other ranks
// run process loops: receive a spawn, evaluate, reply. The first error
// aborts the machine.
func Run(cfg Config, master func(m *Master) error) (transport.Stats, error) {
	if err := cfg.validate(); err != nil {
		return transport.Stats{}, err
	}
	fabric := transport.New(transport.Config{
		Ranks:           cfg.Processes,
		MaxMessageBytes: cfg.MaxMessageBytes,
	})
	defer fabric.Close()

	errs := make([]error, cfg.Processes)
	var wg sync.WaitGroup
	for r := 1; r < cfg.Processes; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("eden: process %d panicked: %v", r, p)
					fabric.Close()
				}
			}()
			errs[r] = processLoop(&Proc{cfg: cfg, ep: fabric.Endpoint(r)})
			if errs[r] != nil {
				fabric.Close()
			}
		}()
	}

	m := &Master{Proc{cfg: cfg, ep: fabric.Endpoint(0)}}
	masterErr := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("eden: master panicked: %v", p)
				fabric.Close()
			}
		}()
		return master(m)
	}()
	// Shut the processes down (best effort: the fabric may already be
	// closed after an error).
	for r := 1; r < cfg.Processes; r++ {
		if err := m.ep.Send(r, tagDone, nil); err != nil {
			break
		}
	}
	if masterErr != nil {
		fabric.Close()
	}
	wg.Wait()
	stats := fabric.Stats()
	if masterErr != nil {
		return stats, masterErr
	}
	for _, e := range errs {
		if e != nil && !errors.Is(e, transport.ErrClosed) {
			return stats, e
		}
	}
	return stats, nil
}

func processLoop(pc *Proc) error {
	ep := pc.ep
	for {
		msg, err := ep.Recv(transport.AnySource, transport.AnyTag)
		if err != nil {
			return err
		}
		switch msg.Tag {
		case tagDone:
			return nil
		case tagSpawn:
			r := serial.NewReader(msg.Payload)
			name := r.String()
			input := r.RawBytes()
			if err := r.Err(); err != nil {
				return err
			}
			w := serial.NewWriter(64)
			if out, perr := pc.RunLocal(name, input); perr != nil {
				w.Bool(false)
				w.String(perr.Error())
			} else {
				w.Bool(true)
				w.RawBytes(out)
			}
			if err := ep.Send(msg.Src, tagResult, w.Bytes()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("eden: process %d: unexpected tag %d", ep.Rank(), msg.Tag)
		}
	}
}
