package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Deterministic fault injection. The paper's runtime assumes a lossless MPI
// fabric (§3.4); real clusters bend that assumption, so the virtual fabric
// can be configured to misbehave on purpose: drop, duplicate, reorder,
// bit-corrupt, or delay messages with seeded per-link probabilities, pause
// a rank's inbox for a window (a GC stall or an overloaded node), or crash
// a rank outright partway through a run. The retry/ack layer in
// internal/mpi exists to survive exactly these faults; the chaos suites in
// internal/parboil prove the benchmarks produce identical results on a
// faulty fabric.
//
// Determinism: all probability draws come from one seeded rand.Rand behind
// a mutex, so a single-goroutine send sequence faults identically across
// runs. Multi-goroutine runs interleave draws nondeterministically but
// remain reproducible in distribution; tests that need exact replay drive
// the fabric from one goroutine.

// maxExtraDelay bounds the random hold applied by Reorder and Delay faults.
const maxExtraDelay = 2 * time.Millisecond

// FaultProbs are per-message fault probabilities in [0, 1] for one link.
type FaultProbs struct {
	// Drop loses the message entirely.
	Drop float64
	// Duplicate delivers the message twice.
	Duplicate float64
	// Reorder holds the message briefly so later sends overtake it.
	Reorder float64
	// Corrupt flips one random bit of the payload in flight.
	Corrupt float64
	// Delay holds the message for a random extra duration without
	// reordering intent (slow link).
	Delay float64
}

// Link identifies one directed fabric edge.
type Link struct{ Src, Dst int }

// Pause freezes deliveries into Rank's inbox for Duration once the rank
// has received AfterDeliveries messages — a stalled or overloaded node.
type Pause struct {
	Rank            int
	AfterDeliveries int64
	Duration        time.Duration
}

// Crash kills Rank after it has completed AfterSends sends: the next send
// it attempts fails with ErrCrashed, its mailbox closes (pending receives
// return ErrCrashed), and all traffic to or from it is silently lost —
// a process death, not a connection error the sender can observe directly.
type Crash struct {
	Rank       int
	AfterSends int64
}

// FaultConfig enables fault injection on a fabric.
type FaultConfig struct {
	// Seed feeds the deterministic probability source.
	Seed int64
	// Default applies to every link without an explicit override.
	Default FaultProbs
	// Links overrides Default per directed edge.
	Links map[Link]FaultProbs
	// Pauses and Crashes are per-rank schedules.
	Pauses  []Pause
	Crashes []Crash
}

// FaultStats counts injected faults, surfaced through Fabric.Stats.
type FaultStats struct {
	Dropped    int64
	Duplicated int64
	Reordered  int64
	Corrupted  int64
	Delayed    int64
	Paused     int64
	// CrashLost counts messages silently lost because an endpoint was
	// crashed (distinct from the sender-visible ErrCrashed of the dying
	// rank's own send).
	CrashLost int64
}

// injector owns a fabric's fault state.
type injector struct {
	mu        sync.Mutex
	cfg       FaultConfig
	rng       *rand.Rand
	f         *Fabric
	sends     []int64     // per-rank completed send count
	delivered []int64     // per-rank inbound message count
	pauseAt   [][]Pause   // pending pause schedules per rank
	pausedTil []time.Time // active pause window end per rank
	crashAt   []int64     // send count at which each rank dies (-1 = never)
	stats     FaultStats
}

func newInjector(cfg FaultConfig, f *Fabric) *injector {
	in := &injector{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		f:         f,
		sends:     make([]int64, f.cfg.Ranks),
		delivered: make([]int64, f.cfg.Ranks),
		pauseAt:   make([][]Pause, f.cfg.Ranks),
		pausedTil: make([]time.Time, f.cfg.Ranks),
		crashAt:   make([]int64, f.cfg.Ranks),
	}
	for i := range in.crashAt {
		in.crashAt[i] = -1
	}
	for _, p := range cfg.Pauses {
		if p.Rank >= 0 && p.Rank < f.cfg.Ranks {
			in.pauseAt[p.Rank] = append(in.pauseAt[p.Rank], p)
		}
	}
	for _, c := range cfg.Crashes {
		if c.Rank >= 0 && c.Rank < f.cfg.Ranks {
			if in.crashAt[c.Rank] < 0 || c.AfterSends < in.crashAt[c.Rank] {
				in.crashAt[c.Rank] = c.AfterSends
			}
		}
	}
	return in
}

// probsFor resolves the effective probabilities of one link.
func (in *injector) probsFor(src, dst int) FaultProbs {
	if p, ok := in.cfg.Links[Link{Src: src, Dst: dst}]; ok {
		return p
	}
	return in.cfg.Default
}

// apply runs the fault machinery for one send that has already been
// metered. handled=true means apply consumed the message (delivered it,
// possibly mutated/duplicated/late, or lost it) and the send must return
// err as-is; handled=false means no fault fired and the send proceeds down
// the normal path routing pl — which is payload itself unless a corrupt
// fault on a shared payload forced a copy-on-write (a shared buffer is the
// sender's backing array; in-flight corruption must never damage it).
func (in *injector) apply(src, dst, tag int, payload []byte, shared bool) (pl []byte, handled bool, err error) {
	in.mu.Lock()

	// Crash schedule: the sender dies when it attempts the send after its
	// quota. The dying send's message is lost.
	if quota := in.crashAt[src]; quota >= 0 && in.sends[src] >= quota {
		in.stats.CrashLost++
		in.mu.Unlock()
		in.f.CrashRank(src)
		return payload, true, ErrCrashed
	}
	in.sends[src]++

	// Traffic to an already-crashed rank vanishes silently; the sender
	// only finds out through its ack timeout.
	if in.f.Crashed(dst) {
		in.stats.CrashLost++
		in.mu.Unlock()
		return payload, true, nil
	}

	p := in.probsFor(src, dst)
	if in.rng.Float64() < p.Drop {
		in.stats.Dropped++
		in.mu.Unlock()
		return payload, true, nil
	}
	if in.rng.Float64() < p.Corrupt && len(payload) > 0 {
		if shared {
			payload = append([]byte(nil), payload...)
		}
		bit := in.rng.Intn(len(payload) * 8)
		payload[bit/8] ^= 1 << (bit % 8)
		in.stats.Corrupted++
	}
	copies := 1
	if in.rng.Float64() < p.Duplicate {
		copies = 2
		in.stats.Duplicated++
	}

	// Inbox pause: activate any pending schedule whose delivery quota has
	// been reached (the quota counts completed deliveries, so the first
	// held message is quota+1), then route through the hold window while it
	// is open.
	// Pause-window bookkeeping follows the fabric clock, so an injected
	// simulated clock drives pause expiry the same way it drives the
	// reliable layer's ack deadlines.
	now := in.f.Clock().Now()
	pending := in.pauseAt[dst]
	for i := 0; i < len(pending); {
		if in.delivered[dst] >= pending[i].AfterDeliveries {
			end := now.Add(pending[i].Duration)
			if end.After(in.pausedTil[dst]) {
				in.pausedTil[dst] = end
			}
			pending = append(pending[:i], pending[i+1:]...)
		} else {
			i++
		}
	}
	in.pauseAt[dst] = pending
	in.delivered[dst]++

	var hold time.Duration
	if until := in.pausedTil[dst]; until.After(now) {
		hold = until.Sub(now)
		in.stats.Paused++
	}
	if in.rng.Float64() < p.Reorder {
		hold += time.Duration(in.rng.Int63n(int64(maxExtraDelay)))
		in.stats.Reordered++
	}
	if in.rng.Float64() < p.Delay {
		hold += time.Duration(in.rng.Int63n(int64(maxExtraDelay)))
		in.stats.Delayed++
	}
	in.mu.Unlock()

	if copies == 1 && hold == 0 {
		return payload, false, nil // clean send: normal path
	}
	for i := 0; i < copies; i++ {
		cp := payload
		if i == 1 {
			cp = append([]byte(nil), payload...)
		}
		if hold > 0 {
			f := in.f
			//lint:allow fabrictime delayed redelivery is scheduled in real time; the hold length derives from fabric-clock windows
			time.AfterFunc(hold, func() { f.route(src, dst, tag, cp) }) //nolint:errcheck
		} else if err := in.f.route(src, dst, tag, cp); err != nil {
			return payload, true, err
		}
	}
	return payload, true, nil
}

// snapshot returns the current fault counters.
func (in *injector) snapshot() FaultStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
