package perfmodel

import (
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestOnlineUnitCostFallback(t *testing.T) {
	o := NewOnline(planTestCal(), DefaultDecay)
	if got := o.UnitCost(CostMRIQ, 7e-9); got != 7e-9 {
		t.Fatalf("unseen class returned %g, want fallback", got)
	}
	o.Observe(CostMRIQ, 0, 1000, 10*time.Microsecond) // 10ns/unit
	o.Commit()
	if got := o.UnitCost(CostMRIQ, 7e-9); math.Abs(got-1e-8) > 1e-12 {
		t.Fatalf("first sample set unit cost %g, want 1e-8", got)
	}
	if o.Samples(CostMRIQ) != 1 {
		t.Fatalf("Samples = %d, want 1", o.Samples(CostMRIQ))
	}
	// Invalid observations are dropped, not committed.
	o.Observe(CostMRIQ, 0, 0, time.Second)
	o.Observe(CostMRIQ, 0, 100, 0)
	o.Observe(CostClass(99), 0, 100, time.Second)
	o.Commit()
	if o.Samples(CostMRIQ) != 1 {
		t.Fatalf("invalid samples committed: %d", o.Samples(CostMRIQ))
	}
}

func TestOnlineSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotName)

	o := NewOnline(planTestCal(), 0.5)
	o.Observe(CostSGEMM, 0, 1e6, time.Millisecond)
	o.Observe(CostSGEMM, 1, 1e6, 2*time.Millisecond)
	o.Observe(CostTPACF, 0, 500, 10*time.Microsecond)
	o.Commit()
	o.ObserveBias("sgemm", 0.010, 0.012)
	o.ObserveBias("sgemm", 0.012, 0.011)
	o.ObserveBias("mriq", 0.5, 0.4)
	if err := o.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	got, err := LoadOnline(path, Calibration{}, DefaultDecay)
	if err != nil {
		t.Fatalf("LoadOnline: %v", err)
	}
	for _, c := range []CostClass{CostGeneric, CostMRIQ, CostSGEMM, CostTPACF, CostCUTCP} {
		if got.Samples(c) != o.Samples(c) {
			t.Errorf("class %v: samples %d, want %d", c, got.Samples(c), o.Samples(c))
		}
		if w, g := o.UnitCost(c, -1), got.UnitCost(c, -1); w != g {
			t.Errorf("class %v: unit cost %g, want %g", c, g, w)
		}
	}
	for _, name := range []string{"sgemm", "mriq", "never-seen"} {
		if w, g := o.Bias(name), got.Bias(name); w != g {
			t.Errorf("bias %q: %g, want %g", name, g, w)
		}
	}
	// The base calibration travels inside the snapshot, not from the
	// caller's argument.
	if got.Base() != o.Base() {
		t.Errorf("base calibration did not round-trip")
	}
}

func TestLoadOnlineMissingFile(t *testing.T) {
	o, err := LoadOnline(filepath.Join(t.TempDir(), "absent.json"), planTestCal(), DefaultDecay)
	if err != nil {
		t.Fatalf("missing snapshot is not an error, got %v", err)
	}
	if o == nil || o.Samples(CostMRIQ) != 0 {
		t.Fatalf("missing snapshot must yield a fresh recalibrator")
	}
	if o.Base() != planTestCal() {
		t.Fatalf("fresh recalibrator must carry the caller's calibration")
	}
}

func TestLoadOnlineCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage.json": "{not json at all",
		"version.json": `{"version": 99, "decay": 0.25}`,
		"classes.json": `{"version": 1, "decay": 0.25, "unit": [1], "samples": [1]}`,
		"invalid.json": `{"version": 1, "decay": 0.25, "unit": [0,0,0,0,0], "samples": [3,0,0,0,0]}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := LoadOnline(path, planTestCal(), DefaultDecay)
		if err == nil {
			t.Errorf("%s: want a diagnostic error", name)
		}
		if o == nil {
			t.Fatalf("%s: fallback recalibrator is nil", name)
		}
		// The fallback is the static calibration with no history: plans
		// made from it are exactly the plans a fresh process would make.
		if o.Base() != planTestCal() {
			t.Errorf("%s: fallback lost the static calibration", name)
		}
		for c := CostClass(0); c < numCostClasses; c++ {
			if o.Samples(c) != 0 {
				t.Errorf("%s: fallback carries %d samples for %v", name, o.Samples(c), c)
			}
		}
	}
}

// TestOnlineCommitOrderDeterministic pins the recalibrator's central
// contract: the committed EWMA state is a function of the sample SET, not
// of heartbeat arrival order. Two recalibrators receive the same samples
// from concurrent goroutines in different interleavings (run under -race
// this also exercises Observe's locking).
func TestOnlineCommitOrderDeterministic(t *testing.T) {
	type sample struct {
		class CostClass
		task  int
		units float64
		d     time.Duration
	}
	var samples []sample
	rng := rand.New(rand.NewSource(42))
	for task := 0; task < 64; task++ {
		samples = append(samples, sample{
			class: CostClass(1 + task%4),
			task:  task,
			units: float64(100 + rng.Intn(1000)),
			d:     time.Duration(1+rng.Intn(5000)) * time.Microsecond,
		})
	}
	feed := func(o *Online, order []int) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(order); i += 8 {
					s := samples[order[i]]
					o.Observe(s.class, s.task, s.units, s.d)
				}
			}(w)
		}
		wg.Wait()
		o.Commit()
	}

	a := NewOnline(planTestCal(), DefaultDecay)
	b := NewOnline(planTestCal(), DefaultDecay)
	fwd := make([]int, len(samples))
	rev := make([]int, len(samples))
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(samples) - 1 - i
	}
	feed(a, fwd)
	feed(b, rev)

	for c := CostClass(0); c < numCostClasses; c++ {
		if a.Samples(c) != b.Samples(c) {
			t.Fatalf("class %v: %d vs %d samples", c, a.Samples(c), b.Samples(c))
		}
		ua, ub := a.UnitCost(c, -1), b.UnitCost(c, -1)
		if ua != ub {
			t.Fatalf("class %v: unit cost depends on arrival order: %g vs %g", c, ua, ub)
		}
	}
}

func TestObserveBiasCompounds(t *testing.T) {
	o := NewOnline(planTestCal(), 0.5)
	o.ObserveBias("w", 1.0, 2.0)
	if got := o.Bias("w"); got != 2.0 {
		t.Fatalf("first observation sets bias directly: got %g", got)
	}
	// Second run: prediction (already ×2) still observed 2× slow — the
	// residual folds in on top of the carried bias.
	o.ObserveBias("w", 1.0, 2.0)
	// decay 0.5: 0.5*(2*2) + 0.5*2 = 3
	if got := o.Bias("w"); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("compounded bias = %g, want 3.0", got)
	}
	// A perfectly predicted run (residual 1) pulls the bias back toward
	// its current value, never past it.
	o.ObserveBias("w", 3.0, 3.0)
	if got := o.Bias("w"); got != 3.0 {
		t.Fatalf("residual-1 run moved bias to %g", got)
	}
}

// A snapshot whose base calibration prices serialization below zero is
// corrupt like any other: it would make the planner favour the widest farm.
func TestLoadOnlineRefusesNegativeCost(t *testing.T) {
	cal := planTestCal()
	cal.SerPerByte = -1
	path := filepath.Join(t.TempDir(), SnapshotName)
	if err := NewOnline(cal, DefaultDecay).Save(path); err != nil {
		t.Fatal(err)
	}
	o, err := LoadOnline(path, planTestCal(), DefaultDecay)
	if err == nil || o.Base() != planTestCal() {
		t.Fatalf("loaded base %+v, error %v: want the fresh calibration and an error", o.Base(), err)
	}
}

// FuzzOnlineSnapshot feeds arbitrary bytes to LoadOnline, the trust boundary
// a calibration file crosses. It may not panic; a clean load has every cost
// the planner reads finite and above zero, plans no breakdown below zero, and
// re-saves to a snapshot that reloads identically.
func FuzzOnlineSnapshot(f *testing.F) {
	for _, serPerByte := range []float64{1e-9, -1} {
		cal := planTestCal()
		cal.SerPerByte = serPerByte
		o := NewOnline(cal, DefaultDecay)
		o.Observe(CostSGEMM, 0, 1e6, time.Millisecond)
		o.Commit()
		o.ObserveBias("sgemm", 0.010, 0.012)
		path := filepath.Join(f.TempDir(), SnapshotName)
		if err := o.Save(path); err != nil {
			f.Fatal(err)
		}
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"version": 1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, SnapshotName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := LoadOnline(path, planTestCal(), DefaultDecay)
		if err != nil {
			return
		}
		b := o.Base()
		costs := []float64{b.MRIQUnit[Triolet], b.SGEMMMac[Triolet], b.TPACFPair[Triolet], b.CUTCPCell[Triolet],
			b.SerPerByte, b.AllocPerByte, b.AddF32}
		for c := range numCostClasses {
			costs = append(costs, o.UnitCost(c, 1), o.Bias(c.String()))
		}
		for _, v := range costs {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("clean load carries cost %g: %+v", v, b)
			}
		}
		pl := NewPlannerOnline(o, VirtualMachine(), 2)
		for c := range numCostClasses {
			for _, red := range []ReduceShape{ReduceGather, ReduceScalar, ReduceGrid} {
				w := Workload{Name: c.String(), Elems: 4096, BytesPerElem: 64, BytesPerResult: 8, UnitsPerElem: 1e3,
					Class: c, UnitCost: 1e-9, Reduce: red, ReduceBytes: 1 << 16, Pointerless: red == ReduceGather}
				if p := pl.Plan(w).Predicted; !(p.Compute >= 0 && p.Comm >= 0 && p.Serial >= 0) {
					t.Fatalf("%v %v plans %+v", c, red, p)
				}
			}
		}
		again := filepath.Join(dir, "again.json")
		if err := o.Save(again); err != nil {
			t.Fatal(err)
		}
		o2, err := LoadOnline(again, Calibration{}, DefaultDecay)
		if err != nil || o2.base != o.base || o2.decay != o.decay || o2.unit != o.unit || o2.samples != o.samples ||
			!maps.Equal(o2.bias, o.bias) || !maps.Equal(o2.biasN, o.biasN) {
			t.Fatalf("re-saved snapshot reloads differently (%v)", err)
		}
	})
}
