package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"triolet/internal/harness"
)

// AutoPar acceptance gate. The planner must beat the practitioner: for
// every Parboil benchmark the perfmodel-chosen mapping (one node or a
// farm, node count, task count) runs against the best hand-tuned
// 1/2/4/8-node configuration of the same farm, and the recalibrated
// second run must land within the bound. CI runs this with a relaxed
// bound (shared runners jitter); nightly enforces the paper's 10%.

// autoParPoint is the JSON projection of one sweep point, shaped for the
// CI job summary's predicted-vs-observed table.
type autoParPoint struct {
	Bench     string  `json:"bench"`
	Plan1     string  `json:"plan_run1"`
	Plan2     string  `json:"plan_run2"`
	Pred1MS   float64 `json:"predicted_run1_ms"`
	Obs1MS    float64 `json:"observed_run1_ms"`
	Pred2MS   float64 `json:"predicted_run2_ms"`
	Obs2MS    float64 `json:"observed_run2_ms"`
	Err1      float64 `json:"rel_err_run1"`
	Err2      float64 `json:"rel_err_run2"`
	PredBytes int64   `json:"predicted_bytes"`
	ObsBytes  int64   `json:"observed_bytes"`
	BestMS    float64 `json:"best_hand_ms"`
	BestNodes int     `json:"best_hand_nodes"`
	Ratio     float64 `json:"ratio_vs_best_hand"`
	OK        bool    `json:"ok"`
}

type autoParReport struct {
	Note      string         `json:"note"`
	Bound     float64        `json:"bound"`
	CalibPath string         `json:"calibration_snapshot,omitempty"`
	Resumed   bool           `json:"resumed_snapshot"`
	Points    []autoParPoint `json:"points"`
}

func runAutoParSweep(jsonOut bool, bound float64, calibPath string, cores int) int {
	fmt.Fprintln(os.Stderr, "autopar: calibrating, planning, and sweeping 4 benchmarks...")
	res, err := harness.AutoSweep(cores, calibPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "autopar: %v\n", err)
		return 1
	}

	if jsonOut {
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
		report := autoParReport{
			Note:      "auto-mapped (planner-chosen nodes/tasks) vs best hand-tuned 1-8 nodes; run 2 is replanned from online recalibration",
			Bound:     bound,
			CalibPath: res.CalibPath,
			Resumed:   res.Resumed,
		}
		for _, p := range res.Points {
			report.Points = append(report.Points, autoParPoint{
				Bench: p.Bench, Plan1: p.Plan1, Plan2: p.Plan2,
				Pred1MS: ms(p.Pred1), Obs1MS: ms(p.Obs1),
				Pred2MS: ms(p.Pred2), Obs2MS: ms(p.Obs2),
				Err1: p.Err1, Err2: p.Err2,
				PredBytes: p.PredBytes, ObsBytes: p.ObsBytes,
				BestMS: ms(p.Best), BestNodes: p.BestNodes,
				Ratio: p.Ratio, OK: p.OK,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		fmt.Print(harness.AutoTable(res))
	}

	if err := harness.AutoGate(res, bound); err != nil {
		fmt.Fprintf(os.Stderr, "autopar: FAIL %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "autopar: ok — all benchmarks within %.2fx of best hand-tuned, recalibration converging\n", bound)
	return 0
}
