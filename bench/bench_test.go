package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPicker(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // exactly ten beyond p99
		{999, 95, true},  // nine beyond p99
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 0, false},
		{1, 0, false},
	} {
		p, ok := highestTail(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if samplesBeyond(1200, 95) != 60 {
		t.Errorf("1200 jobs leave %d beyond p95, want 60", samplesBeyond(1200, 95))
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Layer: "cluster", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 60) between them.
		{ID: 2, Parent: 1, Layer: "app", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 1, Layer: "app", Start: ms(30), End: ms(60)},
		// A nested grandchild takes from span 2 only.
		{ID: 4, Parent: 2, Layer: "serial", Start: ms(20), End: ms(25)},
		// A child that overruns its parent is clipped to it.
		{ID: 5, Parent: 1, Layer: "wire", Start: ms(90), End: ms(120)},
		// A child wholly inside an earlier sibling adds nothing.
		{ID: 6, Parent: 1, Layer: "app", Start: ms(35), End: ms(40)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(35), 3: ms(30), 4: ms(5), 5: ms(30), 6: ms(5)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	for i := range spans {
		spans[i].Workload = "w"
	}
	byLayer := layerSelf(append(spans, span{ID: 7, Workload: "other", Layer: "app", End: ms(1000)}), "w")
	if byLayer["app"] != ms(70) || byLayer["cluster"] != ms(40) {
		t.Errorf("self time by layer = %v", byLayer)
	}
}

func TestRecorder(t *testing.T) {
	var none *scope
	if id, end := none.begin(0, "x", "y"); id != 0 {
		t.Error("a nil scope must record nothing")
	} else {
		end()
	}
	rec := newRecorder()
	sc := &scope{rec: rec, workload: "w", solve: 3}
	root, endRoot := sc.begin(0, "run", "cluster")
	_, endKid := sc.begin(root, "app", "iter")
	sc.begin(root, "open", "iter") // never closed: not reported
	endKid()
	endRoot()
	got := rec.all()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].Solve != 3 || got[1].End < got[1].Start {
		t.Errorf("recorded spans = %+v", got)
	}
	events := chromeTrace(append(got, span{ID: 9, Workload: "v", Layer: "iter", Name: "z", End: 5}))
	pids, tids := map[int]bool{}, map[int]bool{}
	for _, ev := range events {
		if ev.Ph == "X" {
			pids[ev.Pid], tids[ev.Tid] = true, true
		}
	}
	if len(pids) != 2 || len(tids) != 3 {
		t.Errorf("chrome trace has %d pids and %d tids, want one pid per workload (2) and one tid per workload layer (3)", len(pids), len(tids))
	}
}

// Names and units as BENCHMARK.json's contract spells them.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestNames(t *testing.T) {
	for _, ok := range []string{"solve_ms", "iter.sum-flat.vs_raw", "a", "9lives", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("workload name %q is invalid or used twice", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// checkDeclared compares the metrics a run printed with a BENCHMARK.json list.
func checkDeclared(t *testing.T, what string, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if !validName(m.Name) || !validUnit(m.Unit) {
			t.Errorf("%s: metric %q with unit %q is not well-formed", what, m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("%s: metric %q printed twice", what, m.Name)
		}
		seen[m.Name] = true
		if unit, ok := want[m.Name]; !ok {
			t.Errorf("%s: metric %q is not declared in BENCHMARK.json", what, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", what, m.Name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %q = %v", what, m.Name, m.Value)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: BENCHMARK.json declares %q but the run did not print it", what, name)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := resultFile{
		Host: hostFacts(), Seed: 7, Seconds: 12,
		Workloads: []workloadResult{{
			Name: "w", Why: "because", Config: "2x1", Attempted: 30, Failed: 0,
			EndToEnd: []metric{{Name: "solve_ms", Unit: "ms", Value: 41.25, Samples: 30}},
			PerLayer: []metric{{Name: "attr.wire_frac", Unit: "fraction", Value: 0.3, Samples: 7}},
		}},
		Layers: []metric{{Name: "trace.span_ns", Unit: "ns", Value: 88.5, Samples: 7}},
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeResult(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out resultFile
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("result file did not round-trip:\n in %+v\nout %+v", in, out)
	}
}

// The quick smoke: one round and one rep per workload with every output
// check on, the traced pass, the layer probes, and both artefacts.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	opt := options{
		seed: 5, seconds: 0, quick: true, tmp: dir,
		out: filepath.Join(dir, "result.json"), traceOut: filepath.Join(dir, "trace.json"),
	}
	var buf bytes.Buffer
	if err := run(opt, &buf); err != nil {
		t.Fatalf("quick run: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(opt.out)
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)
	if len(res.Workloads) != len(b.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json lists %d", len(res.Workloads), len(b.Workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
		if bounds[m.Name] != m.Bound {
			t.Errorf("BENCHMARK.json bounds %s by %v, the A/A check by %v", m.Name, m.Bound, bounds[m.Name])
		}
	}
	// failed_frac is printed by the full run only: the driver's result line
	// carries attempted and failed themselves.
	endToEnd["failed_frac"] = "fraction"
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for i, w := range res.Workloads {
		if w.Name != b.Workloads[i].Name || w.Why != b.Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json says %q (%q)", i, w.Name, w.Why, b.Workloads[i].Name, b.Workloads[i].Why)
		}
		if w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, w.Attempted, w.Failed)
		}
		checkDeclared(t, w.Name+" end-to-end", w.EndToEnd, endToEnd)
		checkDeclared(t, w.Name+" per-layer", append(append([]metric(nil), res.Layers...), w.PerLayer...), perLayer)
	}

	trace, err := os.ReadFile(opt.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &ct); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	procs := map[int]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			procs[ev.Pid] = true
		}
	}
	if len(procs) != len(workloads) {
		t.Errorf("trace has spans of %d workloads, want %d", len(procs), len(workloads))
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Errorf("the run left %d entries in its temp dir, want only the two artefacts", len(left))
	}
}

// The driver's contract: the last line of output is one JSON object with
// exactly correct, attempted, failed and metrics.
func TestDriverLine(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, traced := range []int{0, 1} {
		var buf bytes.Buffer
		opt := options{workload: "sgemm-wire", seed: 9, quick: true, trace: traced, tmp: t.TempDir()}
		if err := run(opt, &buf); err != nil {
			t.Fatalf("trace %d: %v\n%s", traced, err, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", traced, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %d: result line has keys %v", traced, line)
		}
		var res driverResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %d: %+v", traced, res)
		}
		want := map[string]string{}
		if traced == 0 {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		var got []metric
		for name, v := range res.Metrics {
			got = append(got, metric{Name: name, Unit: v.Unit, Value: v.Value})
		}
		checkDeclared(t, "driver line", got, want)
	}
	if err := run(options{workload: "no-such", quick: true, tmp: t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}
