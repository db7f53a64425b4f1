package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"triolet/internal/iter"
)

// Benchmark-regression gate. The fusion machinery's whole value proposition
// (paper §5: skeleton pipelines compile to loops) is that a composed
// pipeline costs about the same as the hand-written loop it replaces. The
// gate measures that directly: each case runs a fused pipeline and its raw
// loop twin and records the time ratio pipeline/raw. Ratios are
// machine-independent — both sides run on the same box in the same process —
// so a checked-in baseline stays meaningful across CI runners, where
// absolute ns/op would not. CI fails when any ratio exceeds max(1.10 × its
// baseline, 1.4) (see BENCH_BASELINE.json and the bench-gate CI job).

// gateData is sized to dominate loop overhead without making runs slow.
var gateData = func() []int64 {
	xs := make([]int64, 1<<15)
	for i := range xs {
		xs[i] = int64(i % 1003)
	}
	return xs
}()

// gateFloats back the dot-product case (zip fusion over two float arrays).
var gateFloatsA, gateFloatsB = func() ([]float64, []float64) {
	a := make([]float64, 1<<15)
	b := make([]float64, 1<<15)
	for i := range a {
		a[i] = float64(i%911) * 0.5
		b[i] = float64(i%613) * 0.25
	}
	return a, b
}()

var gateSink int64

var gateSinkF float64

type gateCase struct {
	Name     string
	Pipeline func(b *testing.B)
	Raw      func(b *testing.B)
}

var gateCases = []gateCase{
	{
		Name: "sum-flat",
		Pipeline: func(b *testing.B) {
			it := iter.FromSlice(gateData)
			for b.Loop() {
				gateSink = iter.Sum(it)
			}
		},
		Raw: func(b *testing.B) {
			for b.Loop() {
				var acc int64
				for _, v := range gateData {
					acc += v
				}
				gateSink = acc
			}
		},
	},
	{
		Name: "map-map-sum",
		Pipeline: func(b *testing.B) {
			it := iter.Map(func(x int64) int64 { return x + 1 },
				iter.Map(func(x int64) int64 { return x * 3 }, iter.FromSlice(gateData)))
			for b.Loop() {
				gateSink = iter.Sum(it)
			}
		},
		Raw: func(b *testing.B) {
			for b.Loop() {
				var acc int64
				for _, v := range gateData {
					acc += v*3 + 1
				}
				gateSink = acc
			}
		},
	},
	{
		Name: "filter-sum",
		Pipeline: func(b *testing.B) {
			it := iter.Filter(func(v int64) bool { return v%3 == 0 }, iter.FromSlice(gateData))
			for b.Loop() {
				gateSink = iter.Sum(it)
			}
		},
		Raw: func(b *testing.B) {
			for b.Loop() {
				var acc int64
				for _, v := range gateData {
					if v%3 == 0 {
						acc += v
					}
				}
				gateSink = acc
			}
		},
	},
	{
		Name: "zipwith-sum",
		Pipeline: func(b *testing.B) {
			it := iter.ZipWith(func(a, b int64) int64 { return a * b },
				iter.FromSlice(gateData), iter.FromSlice(gateData))
			for b.Loop() {
				gateSink = iter.Sum(it)
			}
		},
		Raw: func(b *testing.B) {
			for b.Loop() {
				var acc int64
				for i, v := range gateData {
					acc += v * gateData[i]
				}
				gateSink = acc
			}
		},
	},
	{
		Name: "histogram",
		Pipeline: func(b *testing.B) {
			it := iter.Map(func(v int64) int { return int(v % 64) }, iter.FromSlice(gateData))
			for b.Loop() {
				gateSink = iter.Histogram(64, it)[7]
			}
		},
		Raw: func(b *testing.B) {
			for b.Loop() {
				var bins [64]int64
				for _, v := range gateData {
					bins[v%64]++
				}
				gateSink = bins[7]
			}
		},
	},
	{
		// Irregular fusion: every element expands into a short inner loop
		// (KIdxNest of tiny slice-free iterators). This is the shape of
		// tpacf's pair loops; it measures the per-inner-iterator setup cost
		// the block engine cannot amortize.
		Name: "concatmap-sum",
		Pipeline: func(b *testing.B) {
			it := iter.ConcatMap(func(v int64) iter.Iter[int64] {
				n := int(v % 4)
				return iter.Map(func(j int) int64 { return v + int64(j) }, iter.Range(n))
			}, iter.FromSlice(gateData))
			for b.Loop() {
				gateSink = iter.Sum(it)
			}
		},
		Raw: func(b *testing.B) {
			for b.Loop() {
				var acc int64
				for _, v := range gateData {
					n := int(v % 4)
					for j := 0; j < n; j++ {
						acc += v + int64(j)
					}
				}
				gateSink = acc
			}
		},
	},
	{
		// Zip fusion over two distinct arrays through the Zip→Map path (the
		// Pair-constructing route, unlike zipwith-sum's direct ZipWith).
		Name: "dot-product",
		Pipeline: func(b *testing.B) {
			it := iter.Map(func(p iter.Pair[float64, float64]) float64 { return p.Fst * p.Snd },
				iter.Zip(iter.FromSlice(gateFloatsA), iter.FromSlice(gateFloatsB)))
			for b.Loop() {
				gateSinkF = iter.Sum(it)
			}
		},
		Raw: func(b *testing.B) {
			for b.Loop() {
				var acc float64
				for i, v := range gateFloatsA {
					acc += v * gateFloatsB[i]
				}
				gateSinkF = acc
			}
		},
	},
}

// gateResult is one case's measurement. Only Ratio is gated; the absolute
// times are informational (they vary with the machine).
type gateResult struct {
	Name       string  `json:"name"`
	PipelineNs float64 `json:"pipeline_ns_per_op"`
	RawNs      float64 `json:"raw_ns_per_op"`
	Ratio      float64 `json:"ratio"`
}

type gateReport struct {
	Note       string       `json:"note"`
	Benchmarks []gateResult `json:"benchmarks"`
}

// runCase measures one case. Pipeline and raw twin are measured adjacently
// within each round so both sides see the same machine state (frequency
// scaling and background load shift between rounds, which would skew a
// best-of-pipeline over best-of-raw quotient); the reported result is the
// round with the median ratio.
func runCase(c gateCase, rounds int) gateResult {
	measure := func(f func(b *testing.B)) float64 {
		r := testing.Benchmark(f)
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	results := make([]gateResult, 0, rounds)
	for i := 0; i < rounds; i++ {
		p := measure(c.Pipeline)
		raw := measure(c.Raw)
		results = append(results, gateResult{Name: c.Name, PipelineNs: p, RawNs: raw, Ratio: p / raw})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Ratio < results[j].Ratio })
	return results[len(results)/2]
}

// runBenchGate executes the gate and returns the process exit code.
func runBenchGate(jsonOut bool, baselinePath, writeBaselinePath string) int {
	report := gateReport{
		Note: "ratio = fused pipeline time / hand-written loop time; only ratios are gated",
	}
	for _, c := range gateCases {
		fmt.Fprintf(os.Stderr, "bench-gate: measuring %s...\n", c.Name)
		report.Benchmarks = append(report.Benchmarks, runCase(c, 5))
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		fmt.Printf("%-14s %14s %14s %8s\n", "case", "pipeline ns/op", "raw ns/op", "ratio")
		for _, r := range report.Benchmarks {
			fmt.Printf("%-14s %14.1f %14.1f %8.3f\n", r.Name, r.PipelineNs, r.RawNs, r.Ratio)
		}
	}

	if writeBaselinePath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(writeBaselinePath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench-gate: wrote baseline to %s\n", writeBaselinePath)
		return 0
	}

	if baselinePath == "" {
		return 0
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-gate: %v\n", err)
		return 1
	}
	var base gateReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench-gate: parse %s: %v\n", baselinePath, err)
		return 1
	}
	baseRatio := map[string]float64{}
	for _, r := range base.Benchmarks {
		baseRatio[r.Name] = r.Ratio
	}

	// Fail on >10% ratio regression. Fused reduction kernels (fuse.go)
	// pushed the zip/dot baselines down again, and paired-round medians
	// keep run-to-run jitter inside a few percent, so 10% is safely above
	// noise while catching a lost fast path on every case. The floor on
	// the allowed ratio absorbs timer noise on cases whose baseline is at
	// parity (~1.0): a jump from 1.00 to 1.10 is jitter, 1.00 to 1.50 is
	// a lost fusion path.
	const (
		slack = 1.10
		floor = 1.4
	)
	exit := 0
	for _, r := range report.Benchmarks {
		b, ok := baseRatio[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench-gate: %s missing from baseline (add it with -write-baseline)\n", r.Name)
			exit = 1
			continue
		}
		allowed := b * slack
		if allowed < floor {
			allowed = floor
		}
		if r.Ratio > allowed {
			fmt.Fprintf(os.Stderr, "bench-gate: FAIL %s: ratio %.3f exceeds allowed %.3f (baseline %.3f)\n",
				r.Name, r.Ratio, allowed, b)
			exit = 1
		} else {
			fmt.Fprintf(os.Stderr, "bench-gate: ok %s: ratio %.3f (baseline %.3f, allowed %.3f)\n",
				r.Name, r.Ratio, b, allowed)
		}
	}
	return exit
}
