package harness

import (
	"strings"
	"sync"
	"testing"

	"triolet/internal/perfmodel"
)

var (
	moOnce sync.Once
	mo     *perfmodel.Model
)

func getModel() *perfmodel.Model {
	moOnce.Do(func() { mo = perfmodel.NewModel() })
	return mo
}

func TestFig1Table(t *testing.T) {
	s := Fig1Table()
	for _, want := range []string{"Indexer", "Stepper", "Fold", "Collector", "slow", "Mutation"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig1Table missing %q:\n%s", want, s)
		}
	}
}

func TestFig2TableDerivesDispatch(t *testing.T) {
	s := Fig2Table()
	// The load-bearing rows of the paper's case analysis.
	checks := []string{
		"IdxFlat",   // witnesses present
		"IdxFilter", // the simplified filter form
		"StepNest",
		"map f",
		"concatMap f",
	}
	for _, want := range checks {
		if !strings.Contains(s, want) {
			t.Errorf("Fig2Table missing %q:\n%s", want, s)
		}
	}
	// Filter over a flat indexer must appear as a splittable IdxFilter.
	if !strings.Contains(s, "IdxFilter*") {
		t.Errorf("filter-over-flat not splittable in:\n%s", s)
	}
	// Zip with a flat partner from a stepper input must lose splittability
	// (StepFlat with no asterisk).
	if !strings.Contains(s, "StepFlat\tfalse") && !strings.Contains(s, "StepFlat false") {
		// tabwriter expands tabs; just assert the row exists and the zip
		// column for StepFlat is a non-splittable StepFlat.
		lines := strings.Split(s, "\n")
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, "StepFlat") && strings.Contains(l, "false") {
				found = true
			}
		}
		if !found {
			t.Errorf("StepFlat row malformed:\n%s", s)
		}
	}
}

func TestFig3Table(t *testing.T) {
	s := Fig3Table(getModel())
	for _, want := range []string{"tpacf", "mri-q", "sgemm", "cutcp", "CPU (C)", "Eden", "Triolet"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig3Table missing %q:\n%s", want, s)
		}
	}
}

func TestFigSeriesTables(t *testing.T) {
	m := getModel()
	for _, b := range perfmodel.Benches {
		s := FigSeriesTable(m, b)
		for _, want := range []string{"linear", "C+MPI+OpenMP", "Triolet", "Eden", "128"} {
			if !strings.Contains(s, want) {
				t.Errorf("%s series missing %q:\n%s", b, want, s)
			}
		}
	}
	// sgemm must show Eden's failure.
	if !strings.Contains(FigSeriesTable(m, perfmodel.BenchSGEMM), "FAIL") {
		t.Error("sgemm series does not show Eden failure")
	}
}

func TestSummaryTable(t *testing.T) {
	s := SummaryTable(getModel())
	if !strings.Contains(s, "Triolet % of C") || !strings.Contains(s, "23-100%") {
		t.Errorf("summary malformed:\n%s", s)
	}
}

func TestBreakdownTable(t *testing.T) {
	m := getModel()
	s := BreakdownTable(m, perfmodel.BenchCUTCP, perfmodel.Triolet)
	for _, want := range []string{"compute", "comm", "serial", "total", "128"} {
		if !strings.Contains(s, want) {
			t.Errorf("breakdown missing %q:\n%s", want, s)
		}
	}
	// Eden's sgemm breakdown shows FAIL rows at multi-node sizes.
	se := BreakdownTable(m, perfmodel.BenchSGEMM, perfmodel.Eden)
	if !strings.Contains(se, "FAIL") {
		t.Errorf("eden sgemm breakdown missing FAIL:\n%s", se)
	}
}

func TestCSVOutputs(t *testing.T) {
	m := getModel()
	csv := Fig3CSV(m)
	if !strings.Contains(csv, "benchmark,cpu_c,eden,triolet") || !strings.Contains(csv, "mri-q,") {
		t.Errorf("Fig3CSV malformed:\n%s", csv)
	}
	s := FigSeriesCSV(m, perfmodel.BenchSGEMM)
	if !strings.Contains(s, "cores,linear,C+MPI+OpenMP,Triolet,Eden") {
		t.Errorf("series CSV header malformed:\n%s", s)
	}
	// Eden's failed points render as empty cells, not zeros.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, ",") {
		t.Errorf("failed Eden cell not empty in %q", last)
	}
}

func TestSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("real-execution sweep in -short mode")
	}
	points := Sweep([]int{1, 2}, 1, nil)
	if len(points) != 8 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Err != "" {
			t.Errorf("%s@%d: %s", p.Bench, p.Nodes, p.Err)
		}
		if p.Nodes == 2 && p.Bytes == 0 {
			t.Errorf("%s@2 nodes moved no bytes", p.Bench)
		}
		if p.Nodes == 1 && p.Bytes != 0 {
			t.Errorf("%s@1 node moved %d bytes; single node should stay local", p.Bench, p.Bytes)
		}
	}
	table := SweepTable(points)
	if !strings.Contains(table, "fabric bytes") {
		t.Errorf("sweep table malformed:\n%s", table)
	}
}
