// Command triolet-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	triolet-bench              # everything: Figs 1, 3, 4, 5, 7, 8 + summary
//	triolet-bench -fig 5       # one figure
//	triolet-bench -summary     # headline claims only
//
// Scaling figures come from the calibrated performance model (see
// internal/perfmodel and DESIGN.md): kernel unit costs and serialization
// costs are measured on this machine by running the repository's real
// code; cluster communication is modeled with validated byte formulas.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"triolet/internal/harness"
	"triolet/internal/perfmodel"
	"triolet/internal/transport"
)

func main() {
	fig := flag.Int("fig", 0, "print one figure (1, 3, 4, 5, 7, 8); 0 = all")
	summary := flag.Bool("summary", false, "print only the headline-claims summary")
	sweep := flag.Bool("sweep", false, "run a real-execution scaling sweep over virtual node counts")
	format := flag.String("format", "table", "output format for figures: table or csv")
	breakdown := flag.Bool("breakdown", false, "with -fig 4/5/7/8: also print compute/comm/serial time components")
	nodes := flag.Int("nodes", 4, "virtual nodes for -farm-demo/-serve")
	cores := flag.Int("cores", 2, "cores per virtual node for -sweep/-autopar-sweep")
	out := flag.String("out", "", "directory to also write figure files into (fig1.txt, fig3.csv, fig4.csv, ...)")
	netLatUS := flag.Int("netlat", 0, "with -sweep: simulated per-message wire latency in microseconds")
	netMBs := flag.Float64("netbw", 0, "with -sweep: simulated wire bandwidth in MB/s")
	farmDemo := flag.Bool("farm-demo", false, "demo the supervised farm lifecycle: checkpoint to a WAL, kill the master mid-job, resume, quarantine a poison task")
	serve := flag.Bool("serve", false, "host the multi-tenant job service over HTTP on a virtual cluster")
	addr := flag.String("addr", "localhost:8080", "with -serve: HTTP listen address")
	walPath := flag.String("wal", "", "with -serve: registry WAL path (durable jobs; restart resumes)")
	jsonOut := flag.Bool("json", false, "with -autopar-sweep: emit results as JSON")
	autoParSweep := flag.Bool("autopar-sweep", false, "run the AutoPar acceptance sweep: planner-mapped runs vs best hand-tuned 1-8 node configs")
	autoParBound := flag.Float64("autopar-bound", 1.10, "with -autopar-sweep: fail if any auto-mapped run exceeds bound x best hand-tuned time")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (any mode; pprof evidence for perf PRs)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	// Profiles must be flushed on every exit path, including the os.Exit
	// calls below, so each path funnels through finish.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	finish := func(code int) {
		stopProfiles()
		os.Exit(code)
	}
	defer stopProfiles()

	if *autoParSweep {
		finish(runAutoParSweep(*jsonOut, *autoParBound, *cores))
	}

	if *farmDemo {
		finish(runFarmDemo(*nodes))
	}

	if *serve {
		finish(runServe(*nodes, *addr, *walPath))
	}

	if *sweep {
		var delay *transport.DelayConfig
		if *netLatUS > 0 || *netMBs > 0 {
			delay = &transport.DelayConfig{
				Latency:     time.Duration(*netLatUS) * time.Microsecond,
				BytesPerSec: *netMBs * 1e6,
			}
		}
		fmt.Print(harness.SweepTable(harness.Sweep([]int{1, 2, 4, 8}, *cores, delay)))
		return
	}

	if *fig == 1 {
		fmt.Print(harness.Fig1Table())
		return
	}
	if *fig == 2 {
		fmt.Print(harness.Fig2Table())
		return
	}
	if *fig == 6 {
		fmt.Println("Figure 6 is the tpacf Triolet source, not an experiment; this")
		fmt.Println("repository's transcription lives in internal/parboil/tpacf/dist.go")
		fmt.Println("(selfPairs, crossPairs, correlation, trioletOp).")
		return
	}

	fmt.Fprintln(os.Stderr, "calibrating kernel unit costs on this machine...")
	mo := perfmodel.NewModel()

	if *out != "" {
		if err := writeArtifacts(*out, mo); err != nil {
			fmt.Fprintln(os.Stderr, err)
			finish(1)
		}
		fmt.Fprintf(os.Stderr, "wrote figure files to %s\n", *out)
	}

	csv := *format == "csv"
	switch {
	case *summary:
		fmt.Print(harness.SummaryTable(mo))
	case *fig == 3:
		if csv {
			fmt.Print(harness.Fig3CSV(mo))
		} else {
			fmt.Print(harness.Fig3Table(mo))
		}
	case *fig == 4 || *fig == 5 || *fig == 7 || *fig == 8:
		for _, b := range perfmodel.Benches {
			if b.Figure() == *fig {
				if csv {
					fmt.Print(harness.FigSeriesCSV(mo, b))
				} else {
					fmt.Print(harness.FigSeriesTable(mo, b))
					if *breakdown {
						fmt.Println()
						fmt.Print(harness.BreakdownTable(mo, b, perfmodel.Triolet))
						fmt.Println()
						fmt.Print(harness.BreakdownTable(mo, b, perfmodel.RefC))
					}
				}
			}
		}
	case *fig == 0 && csv:
		fmt.Print(harness.Fig3CSV(mo))
		for _, b := range perfmodel.Benches {
			fmt.Print(harness.FigSeriesCSV(mo, b))
		}
	case *fig == 0:
		fmt.Print(harness.Fig1Table())
		fmt.Println()
		fmt.Print(harness.Fig3Table(mo))
		fmt.Println()
		for _, b := range perfmodel.Benches {
			fmt.Print(harness.FigSeriesTable(mo, b))
			fmt.Println()
		}
		fmt.Print(harness.SummaryTable(mo))
	default:
		fmt.Fprintf(os.Stderr, "no such figure: %d (figures 1-8; 2 and 6 are implementation figures)\n", *fig)
		finish(2)
	}
}

// startProfiles begins CPU profiling and registers the heap snapshot, per
// the -cpuprofile/-memprofile flags. The returned stop function is
// idempotent and must run before the process exits for either profile to be
// complete on disk.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// writeArtifacts saves every figure — tables as .txt, data series as .csv —
// for plotting or archiving alongside EXPERIMENTS.md.
func writeArtifacts(dir string, mo *perfmodel.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"fig1.txt":    harness.Fig1Table(),
		"fig2.txt":    harness.Fig2Table(),
		"fig3.txt":    harness.Fig3Table(mo),
		"fig3.csv":    harness.Fig3CSV(mo),
		"summary.txt": harness.SummaryTable(mo),
	}
	for _, b := range perfmodel.Benches {
		files[fmt.Sprintf("fig%d.txt", b.Figure())] = harness.FigSeriesTable(mo, b)
		files[fmt.Sprintf("fig%d.csv", b.Figure())] = harness.FigSeriesCSV(mo, b)
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
