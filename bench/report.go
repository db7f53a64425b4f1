package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. Samples is how many observations stand
// behind it (solves, rounds or messages, as the metric's definition says).
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// metricValue and driverResult are the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host records what the numbers were measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFacts() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// resultFile is the whole benchmark's outcome, as -out writes it.
type resultFile struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
	Layers    []metric         `json:"layers"`
}

type workloadResult struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Config    string   `json:"config"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

func writeResult(path string, res resultFile) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printHost(w io.Writer, opt options) {
	h := hostFacts()
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s; seed=%d seconds=%g\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, opt.seed, opt.seconds)
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-36s %14.6g %-10s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
}

// printReps prints each rep's median solve time in run order, so that drift
// within a run is visible beside the run's median.
func printReps(w io.Writer, t *tally) {
	const show = 24
	fmt.Fprintf(w, "  solve_ms by rep:")
	for i, ms := range t.repMS {
		if i == show {
			fmt.Fprintf(w, " ... (%d more)", len(t.repMS)-show)
			break
		}
		fmt.Fprintf(w, " %.4g", ms)
	}
	fmt.Fprintln(w)
}

// printTail prints the highest percentile of the solve times that has at
// least minBeyond samples beyond it, if there is one.
func printTail(w io.Writer, t *tally) {
	n := t.solves()
	if p, ok := highestTail(n); ok {
		fmt.Fprintf(w, "  solve_ms p%g = %.6g ms (%d of %d samples beyond)\n",
			p, quantile(t.solveMS, p/100), samplesBeyond(n, p), n)
	}
}

// printFailures names each failed solve; the count goes into failed_frac.
func printFailures(w io.Writer, workload string, fails []string) {
	for i, f := range fails {
		if i == 8 {
			fmt.Fprintf(w, "  FAILED %s: ... and %d more\n", workload, len(fails)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED %s: %s\n", workload, f)
	}
}

// printSelfTimes prints the traced pass's self time by layer for a workload.
func printSelfTimes(w io.Writer, rec *recorder, workload string) {
	self := layerSelf(rec.all(), workload)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "  span self time by layer:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s=%.1fms", l, float64(self[l])/float64(time.Millisecond))
	}
	fmt.Fprintln(w)
}

// bounds is the share of set A's value by which set B may be worse, per
// end-to-end metric; BENCHMARK.json carries the same numbers.
var bounds = map[string]float64{
	"setup_s":  0.25,
	"solve_ms": 0.25,
	"vs_ref":   0.25,
	"alloc_mb": 0.05,
}

// runAA runs the end-to-end pass twice and prints, per workload and metric,
// both values, their relative difference and whether it is within the bound.
// All four metrics are better when lower, so "worse" is B above A.
func runAA(opt options, eff effort, w io.Writer) error {
	var sets [2][]*runner
	for i := range sets {
		rs, err := endToEndPass(opt, eff, nil)
		if err != nil {
			return err
		}
		sets[i] = rs
	}
	printHost(w, opt)
	fmt.Fprintf(w, "%-12s %-10s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B/A-1", "bound", "verdict")
	worst := 0
	failed := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		failed += len(a.failures()) + len(b.failures())
		printFailures(w, a.w.name, append(a.failures(), b.failures()...))
		ma, mb := a.endToEnd(), b.endToEnd()
		for j := range ma {
			diff := mb[j].Value/ma[j].Value - 1
			verdict := "PASS"
			if diff > bounds[ma[j].Name] {
				verdict = "FAIL"
				worst++
			}
			fmt.Fprintf(w, "%-12s %-10s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				a.w.name, ma[j].Name, ma[j].Value, mb[j].Value, 100*diff, 100*bounds[ma[j].Name], verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d %w", failed, errFailed)
	}
	if worst > 0 {
		return fmt.Errorf("A/A: %d metric(s) outside their bound", worst)
	}
	return nil
}
