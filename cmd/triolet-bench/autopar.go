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
// 1/2/4/8-node configuration of the same farm and must land within the
// bound. CI runs this with a relaxed bound (shared runners jitter); nightly
// enforces the paper's 10%.

// autoParPoint is the JSON projection of one sweep point, shaped for the
// CI job summary's predicted-vs-observed table.
type autoParPoint struct {
	Bench     string  `json:"bench"`
	Plan      string  `json:"plan"`
	PredMS    float64 `json:"predicted_ms"`
	ObsMS     float64 `json:"observed_ms"`
	Err       float64 `json:"rel_err"`
	PredBytes int64   `json:"predicted_bytes"`
	ObsBytes  int64   `json:"observed_bytes"`
	BestMS    float64 `json:"best_hand_ms"`
	BestNodes int     `json:"best_hand_nodes"`
	Ratio     float64 `json:"ratio_vs_best_hand"`
	OK        bool    `json:"ok"`
}

type autoParReport struct {
	Note   string         `json:"note"`
	Bound  float64        `json:"bound"`
	Points []autoParPoint `json:"points"`
}

func runAutoParSweep(jsonOut bool, bound float64, cores int) int {
	fmt.Fprintln(os.Stderr, "autopar: calibrating, planning, and sweeping 4 benchmarks...")
	res := harness.AutoSweep(cores)

	if jsonOut {
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
		report := autoParReport{
			Note:  "auto-mapped (planner-chosen nodes/tasks) vs best hand-tuned 1-8 nodes",
			Bound: bound,
		}
		for _, p := range res.Points {
			report.Points = append(report.Points, autoParPoint{
				Bench: p.Bench, Plan: p.Plan,
				PredMS: ms(p.Pred), ObsMS: ms(p.Obs), Err: p.Err,
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
	fmt.Fprintf(os.Stderr, "autopar: ok — all benchmarks within %.2fx of best hand-tuned\n", bound)
	return 0
}
