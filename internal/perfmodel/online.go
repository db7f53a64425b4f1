package perfmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// Online refines calibrated unit costs from observed task timings so the
// second run of a workload plans from measured reality. Two corrections
// are tracked:
//
//   - Per-CostClass EWMA over observed seconds-per-unit, fed by the farm's
//     per-task timing beats. Samples are buffered by Observe and folded by
//     Commit in (class, task) order, so the resulting cost is a pure
//     function of the sample SET — concurrent heartbeat arrival order
//     cannot change it (pinned by a -race test).
//   - Per-workload bias: an EWMA of observed/predicted wall time, which
//     absorbs everything the analytic model misses for that workload
//     (constant overheads, cache effects, fabric scheduling).
//
// The state round-trips through a JSON snapshot (SnapshotName, kept next
// to BENCH_BASELINE.json); a missing or corrupt snapshot falls back to the
// static calibration.
type Online struct {
	mu      sync.Mutex
	base    Calibration
	decay   float64
	unit    [numCostClasses]float64 // EWMA seconds/unit; 0 = unseen
	samples [numCostClasses]int
	bias    map[string]float64 // workload name → observed/predicted EWMA
	biasN   map[string]int
	pending []onlineSample
}

// DefaultDecay is the EWMA weight of each new sample: heavy enough that
// one full run visibly moves the estimate, light enough that a single
// noisy task cannot dominate.
const DefaultDecay = 0.25

// SnapshotName is the conventional snapshot filename, a sibling of
// BENCH_BASELINE.json at the repo root.
const SnapshotName = "AUTOPAR_CALIB.json"

type onlineSample struct {
	class   CostClass
	task    int
	units   float64
	seconds float64
}

// NewOnline wraps a static calibration with empty history.
func NewOnline(base Calibration, decay float64) *Online {
	if decay <= 0 || decay > 1 {
		decay = DefaultDecay
	}
	return &Online{
		base:  base,
		decay: decay,
		bias:  make(map[string]float64),
		biasN: make(map[string]int),
	}
}

// Base returns the static calibration the recalibrator started from.
func (o *Online) Base() Calibration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.base
}

// UnitCost returns the recalibrated seconds-per-unit for a class, or
// fallback when the class has no committed samples yet.
func (o *Online) UnitCost(c CostClass, fallback float64) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if c >= 0 && c < numCostClasses && o.samples[c] > 0 {
		return o.unit[c]
	}
	return fallback
}

// Samples reports how many timing samples have been committed for a class.
func (o *Online) Samples(c CostClass) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if c < 0 || c >= numCostClasses {
		return 0
	}
	return o.samples[c]
}

// Bias returns the workload's observed/predicted multiplier (1 when the
// workload has never been observed).
func (o *Online) Bias(name string) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if b, ok := o.bias[name]; ok && b > 0 {
		return b
	}
	return 1
}

// Observe buffers one task timing. task is the task's index within its
// job; it orders concurrent samples deterministically at Commit. Safe for
// concurrent use — the farm's heartbeat drain calls this as timing beats
// arrive.
func (o *Online) Observe(c CostClass, task int, units float64, elapsed time.Duration) {
	if c < 0 || c >= numCostClasses || units <= 0 || elapsed <= 0 {
		return
	}
	o.mu.Lock()
	o.pending = append(o.pending, onlineSample{class: c, task: task, units: units, seconds: elapsed.Seconds()})
	o.mu.Unlock()
}

// Commit folds buffered samples into the per-class EWMAs. Samples are
// sorted by (class, task, units, seconds) first, so the committed state
// depends only on which samples arrived, never on arrival order.
func (o *Online) Commit() {
	o.mu.Lock()
	defer o.mu.Unlock()
	sort.Slice(o.pending, func(i, j int) bool {
		a, b := o.pending[i], o.pending[j]
		if a.class != b.class {
			return a.class < b.class
		}
		if a.task != b.task {
			return a.task < b.task
		}
		if a.units != b.units {
			return a.units < b.units
		}
		return a.seconds < b.seconds
	})
	for _, s := range o.pending {
		x := s.seconds / s.units
		if o.samples[s.class] == 0 {
			o.unit[s.class] = x
		} else {
			o.unit[s.class] = o.decay*x + (1-o.decay)*o.unit[s.class]
		}
		o.samples[s.class]++
	}
	o.pending = o.pending[:0]
}

// ObserveBias folds one whole-run observation into the workload's bias
// EWMA. Called once per run from the master, after the observed wall time
// is known.
func (o *Online) ObserveBias(name string, predicted, observed float64) {
	if name == "" || predicted <= 0 || observed <= 0 {
		return
	}
	x := observed / predicted
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.biasN[name] == 0 {
		o.bias[name] = x
	} else {
		// Bias corrections compound across runs: the prediction already
		// carries the old bias, so the update folds the residual ratio
		// into it rather than replacing it.
		o.bias[name] = o.decay*(x*o.bias[name]) + (1-o.decay)*o.bias[name]
	}
	o.biasN[name]++
}

// snapshot is the JSON wire form. The base calibration travels with the
// learned state so a snapshot is self-contained.
type snapshot struct {
	Version int                `json:"version"`
	Decay   float64            `json:"decay"`
	Base    Calibration        `json:"base"`
	Unit    []float64          `json:"unit"`
	Samples []int              `json:"samples"`
	Bias    map[string]float64 `json:"bias"`
	BiasN   map[string]int     `json:"bias_n"`
}

const snapshotVersion = 1

// Save writes the recalibrated state as a JSON snapshot, atomically
// (temp file + rename) so a crash mid-write cannot leave a torn file.
func (o *Online) Save(path string) error {
	o.mu.Lock()
	s := snapshot{
		Version: snapshotVersion,
		Decay:   o.decay,
		Base:    o.base,
		Unit:    append([]float64(nil), o.unit[:]...),
		Samples: append([]int(nil), o.samples[:]...),
		Bias:    make(map[string]float64, len(o.bias)),
		BiasN:   make(map[string]int, len(o.biasN)),
	}
	for k, v := range o.bias {
		s.Bias[k] = v
	}
	for k, v := range o.biasN {
		s.BiasN[k] = v
	}
	o.mu.Unlock()

	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("perfmodel: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".autopar-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadOnline restores a recalibrator from a snapshot. A missing, corrupt,
// or version-mismatched file falls back to a fresh recalibrator over the
// static calibration; the returned error (nil for a clean load or a
// simply-missing file) says why the fallback happened so callers can log
// it. The returned *Online is always usable.
func LoadOnline(path string, base Calibration, decay float64) (*Online, error) {
	fresh := NewOnline(base, decay)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fresh, nil
		}
		return fresh, fmt.Errorf("perfmodel: read snapshot: %w", err)
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fresh, fmt.Errorf("perfmodel: corrupt snapshot %s: %w", path, err)
	}
	if s.Version != snapshotVersion {
		return fresh, fmt.Errorf("perfmodel: snapshot %s version %d (want %d)", path, s.Version, snapshotVersion)
	}
	if len(s.Unit) != int(numCostClasses) || len(s.Samples) != int(numCostClasses) {
		return fresh, fmt.Errorf("perfmodel: snapshot %s has %d/%d classes (want %d)", path, len(s.Unit), len(s.Samples), numCostClasses)
	}
	for c := range s.Unit {
		if s.Unit[c] < 0 || s.Samples[c] < 0 || (s.Samples[c] > 0 && s.Unit[c] <= 0) {
			return fresh, fmt.Errorf("perfmodel: snapshot %s class %d has invalid state", path, c)
		}
	}
	// Every cost must be finite and not negative, those the planner reads
	// above zero: CalibratePlanning leaves only the others at zero.
	b := s.Base
	read := []float64{b.MRIQUnit[Triolet], b.SGEMMMac[Triolet], b.TPACFPair[Triolet], b.CUTCPCell[Triolet], b.SerPerByte, b.AllocPerByte, b.AddF32}
	for i, v := range slices.Concat(read, b.MRIQUnit[:], b.SGEMMMac[:], b.TPACFPair[:], b.CUTCPCell[:], []float64{b.SGEMMTransposeElem}) {
		if math.IsInf(v, 0) || !(v > 0 || v == 0 && i >= len(read)) {
			return fresh, fmt.Errorf("perfmodel: snapshot %s prices a calibration cost at %g", path, v)
		}
	}
	o := NewOnline(s.Base, s.Decay)
	copy(o.unit[:], s.Unit)
	copy(o.samples[:], s.Samples)
	for k, v := range s.Bias {
		if v > 0 {
			o.bias[k] = v
		}
	}
	for k, v := range s.BiasN {
		if v > 0 {
			o.biasN[k] = v
		}
	}
	return o, nil
}
