// Command perfbench is the repository's benchmark: six named workloads run
// through the public functions of internal/*, every output verified, every
// metric printed by name with its unit and sample count. See README.md.
//
// The driver runs one workload per invocation:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object. Without
// --workload every workload runs, round-robin, followed by the traced pass
// and the layer probes; -aa does that twice and compares the two sets.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// defaultSeed is the seed BENCHMARK.json's documentation records; every
// input generator and every fault and jitter stream derives from -seed.
const defaultSeed = 20140215

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	aa       bool
	quick    bool
	traceOut string
	out      string
	tmp      string
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run only this workload and end with the driver's JSON line")
	flag.Uint64Var(&opt.seed, "seed", defaultSeed, "seed of every generated input and fault/jitter stream")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "timed run per workload, seconds")
	flag.IntVar(&opt.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	flag.BoolVar(&opt.aa, "aa", false, "run the end-to-end pass twice and compare the two sets against the bounds")
	flag.BoolVar(&opt.quick, "quick", false, "smoke run: one round, one rep per workload, all output checks on")
	flag.StringVar(&opt.traceOut, "trace-out", "", "write the traced pass's spans here as Chrome trace-event JSON")
	flag.StringVar(&opt.out, "out", "", "write the full result here as JSON")
	flag.StringVar(&opt.tmp, "tmp", ".bench_build", "directory for the WAL files the checkpoint and jobs probes write")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errFailed reports solves that erred or failed their output check; the
// failing workload and rep are printed before it is returned.
var errFailed = errors.New("solves failed")

func run(opt options, w io.Writer) error {
	// One process, at most as many busy threads as the host has cores.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		return err
	}
	eff := fullEffort(opt.seconds)
	if opt.quick {
		eff = quickEffort()
	}
	rec := newRecorder()
	var err error
	switch {
	case opt.workload != "":
		err = runDriver(opt, eff, rec, w)
	case opt.aa:
		err = runAA(opt, eff, w)
	default:
		err = runFull(opt, eff, rec, w)
	}
	if opt.traceOut != "" {
		if werr := writeChromeTrace(opt.traceOut, rec.all()); err == nil {
			err = werr
		}
	}
	return err
}

func newRunner(wl workload, opt options, eff effort, rec *recorder) *runner {
	return &runner{w: wl, eff: eff, seed: opt.seed, rec: rec}
}

// runDriver is one workload, one pass, and the driver's JSON line.
func runDriver(opt options, eff effort, rec *recorder, w io.Writer) error {
	wl, ok := findWorkload(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	r := newRunner(wl, opt, eff, rec)
	var metrics []metric
	if opt.trace == 0 {
		if err := r.setUp(); err != nil {
			return err
		}
		if err := roundRobin([]*runner{r}, (*runner).untracedDone, (*runner).untracedRep); err != nil {
			return err
		}
		metrics = r.endToEnd()
	} else {
		// The traced run reports no set-up time, so it sets up once; the
		// other half of its budget goes to the layer probes.
		r.eff.setups = 1
		r.eff.tracedSeconds = eff.seconds / 2
		r.alternate = true
		if err := r.setUp(); err != nil {
			return err
		}
		if err := roundRobin([]*runner{r}, (*runner).tracedDone, (*runner).tracedRep); err != nil {
			return err
		}
		if err := r.attribute(); err != nil {
			return err
		}
		layers, err := layerProbes(eff.probe, opt.seed, opt.tmp)
		if err != nil {
			return err
		}
		metrics = append(layers, r.perWorkloadLayers()...)
	}
	printHost(w, opt)
	fmt.Fprintf(w, "workload %s: %s\n", wl.name, wl.config)
	printMetrics(w, metrics)
	if opt.trace == 0 {
		printReps(w, &r.e2e)
		printTail(w, &r.e2e)
	}
	fails := r.failures()
	printFailures(w, wl.name, fails)

	res := driverResult{
		Correct: len(fails) == 0, Attempted: r.attempted(), Failed: len(fails),
		Metrics: map[string]metricValue{},
	}
	for _, m := range metrics {
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if len(fails) > 0 {
		return fmt.Errorf("%s: %d of %d %w", wl.name, len(fails), r.attempted(), errFailed)
	}
	return nil
}

// endToEndPass sets every workload up and runs the untraced pass round-robin.
func endToEndPass(opt options, eff effort, rec *recorder) ([]*runner, error) {
	rs := make([]*runner, len(workloads))
	for i, wl := range workloads {
		rs[i] = newRunner(wl, opt, eff, rec)
	}
	for _, r := range rs {
		if err := r.setUp(); err != nil {
			return nil, err
		}
	}
	if err := roundRobin(rs, (*runner).untracedDone, (*runner).untracedRep); err != nil {
		return nil, err
	}
	return rs, nil
}

// runFull is the whole benchmark in one invocation: the untraced pass, the
// traced pass at a quarter of its length, and the layer probes.
func runFull(opt options, eff effort, rec *recorder, w io.Writer) error {
	rs, err := endToEndPass(opt, eff, rec)
	if err != nil {
		return err
	}
	if err := roundRobin(rs, (*runner).tracedDone, (*runner).tracedRep); err != nil {
		return err
	}
	for _, r := range rs {
		if err := r.attribute(); err != nil {
			return err
		}
	}
	layers, err := layerProbes(eff.probe, opt.seed, opt.tmp)
	if err != nil {
		return err
	}

	res := resultFile{Host: hostFacts(), Seed: opt.seed, Seconds: opt.seconds, Layers: layers}
	printHost(w, opt)
	failed := 0
	for _, r := range rs {
		fails := r.failures()
		failed += len(fails)
		wr := workloadResult{
			Name: r.w.name, Why: r.w.why, Config: r.w.config,
			Attempted: r.attempted(), Failed: len(fails),
			EndToEnd: r.endToEnd(), PerLayer: r.perWorkloadLayers(),
		}
		wr.EndToEnd = append(wr.EndToEnd, metric{
			Name: "failed_frac", Unit: "fraction",
			Value: float64(wr.Failed) / float64(wr.Attempted), Samples: wr.Attempted,
		})
		// The service tail, where the pass has the samples for it: p95 needs
		// ten beyond it, and gets fifty from a thousand jobs.
		if n := r.e2e.solves(); r.w.name == "svc-closed" && hasTail(n, 95) {
			wr.EndToEnd = append(wr.EndToEnd, metric{
				Name: "done_p95_ms", Unit: "ms", Value: quantile(r.e2e.solveMS, 0.95), Samples: n,
			})
		}
		res.Workloads = append(res.Workloads, wr)
		fmt.Fprintf(w, "\nworkload %s: %s\n", wr.Name, wr.Config)
		printMetrics(w, wr.EndToEnd)
		printReps(w, &r.e2e)
		printTail(w, &r.e2e)
		printMetrics(w, wr.PerLayer)
		printSelfTimes(w, rec, wr.Name)
		printFailures(w, wr.Name, fails)
	}
	fmt.Fprintf(w, "\nlayer probes (workload-independent)\n")
	printMetrics(w, layers)
	if opt.out != "" {
		if err := writeResult(opt.out, res); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d %w", failed, errFailed)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
