// Package harness regenerates the paper's tables and figures as text: the
// Figure 1 feature matrix, the Figure 2 dispatch table, the Figure 3
// sequential-time bars, the scaling series of Figures 4, 5, 7 and 8, and the
// abstract's headline claims. Two runs execute real code on the virtual
// cluster: Sweep times the ports' Triolet entry points across node counts,
// and the AutoPar sweep checks planner-mapped farms against hand-tuned ones.
// Each port's own tests check its Triolet, Eden and Ref twins against the
// sequential kernel and pin the Triolet and Eden wire traffic.
package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"triolet/internal/iter"
	"triolet/internal/perfmodel"
)

// Fig1Table renders the paper's Figure 1: the feature matrix of fusible
// virtual data structure encodings.
func Fig1Table() string {
	var sb strings.Builder
	sb.WriteString("Figure 1: features of fusible virtual data structure encodings\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\tParallel\tZip\tFilter\tNested traversal\tMutation")
	for _, r := range iter.FeatureMatrix() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Encoding, r.Parallel, r.Zip, r.Filter, r.Nested, r.Mutation)
	}
	w.Flush()
	return sb.String()
}

// Fig3Table renders Figure 3: modeled sequential execution time of each
// benchmark under the C-style, Eden-style, and Triolet kernels at paper
// scale, from unit costs measured on this machine.
func Fig3Table(mo *perfmodel.Model) string {
	var sb strings.Builder
	sb.WriteString("Figure 3: sequential execution time (seconds, modeled at paper scale\n")
	sb.WriteString("from kernel unit costs measured on this machine)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "\tCPU (C)\tEden\tTriolet\t")
	for _, b := range []perfmodel.Bench{perfmodel.BenchTPACF, perfmodel.BenchMRIQ, perfmodel.BenchSGEMM, perfmodel.BenchCUTCP} {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t\n", b,
			mo.SeqTime(b, perfmodel.RefC),
			mo.SeqTime(b, perfmodel.Eden),
			mo.SeqTime(b, perfmodel.Triolet))
	}
	w.Flush()
	return sb.String()
}

// FigSeriesTable renders one scaling figure (4, 5, 7 or 8): speedup over
// sequential C at each core count for linear, C+MPI+OpenMP, Triolet, Eden.
func FigSeriesTable(mo *perfmodel.Model, b perfmodel.Bench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %d: scalability and performance of %s (speedup over sequential C)\n",
		b.Figure(), b)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(w, "cores")
	for _, c := range perfmodel.CoreCounts {
		fmt.Fprintf(w, "\t%d", c)
	}
	fmt.Fprintln(w, "\t")
	fmt.Fprint(w, "linear")
	for _, c := range perfmodel.CoreCounts {
		fmt.Fprintf(w, "\t%d.0", c)
	}
	fmt.Fprintln(w, "\t")
	for _, impl := range perfmodel.Impls {
		fmt.Fprintf(w, "%s", impl)
		for _, p := range mo.Series(b, impl) {
			if p.Failed {
				fmt.Fprint(w, "\tFAIL")
			} else {
				fmt.Fprintf(w, "\t%.1f", p.Speedup)
			}
		}
		fmt.Fprintln(w, "\t")
	}
	w.Flush()
	return sb.String()
}

// BreakdownTable decomposes one benchmark's modeled Triolet time into its
// components at each cluster size — the overhead-attribution view behind
// the paper's statements like "40 % of Triolet's overhead … attributable
// to the garbage collector" (§4.3) and "60 % of Triolet's execution time
// … arises from allocation overhead" (§4.5). Serial covers master-side
// serialization, allocation, and non-parallelized work.
func BreakdownTable(mo *perfmodel.Model, b perfmodel.Bench, impl perfmodel.Impl) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Time breakdown: %s, %s (seconds)\n", b, impl)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "cores\tcompute\tcomm\tserial\ttotal\t")
	for _, cores := range perfmodel.CoreCounts {
		nodes, perNode := perfmodel.NodesFor(cores)
		bd := mo.At(b, impl, nodes, perNode)
		if bd.Failed {
			fmt.Fprintf(w, "%d\tFAIL\t\t\t\t\n", cores)
			continue
		}
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\t%.2f\t\n",
			cores, bd.Compute, bd.Comm, bd.Serial, bd.Total())
	}
	w.Flush()
	return sb.String()
}

// SummaryTable renders the abstract's headline claims: Triolet's fraction
// of C+MPI+OpenMP performance and its speedup over sequential C at 128
// cores (paper: 23–100 % and 9.6–99×).
func SummaryTable(mo *perfmodel.Model) string {
	var sb strings.Builder
	sb.WriteString("Headline claims at 128 cores (8 nodes x 16 cores)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "\tTriolet speedup\tC+MPI+OpenMP speedup\tTriolet % of C\tEden speedup\t")
	for _, b := range perfmodel.Benches {
		tri := mo.SpeedupAt128(b, perfmodel.Triolet)
		ref := mo.SpeedupAt128(b, perfmodel.RefC)
		ed := mo.SpeedupAt128(b, perfmodel.Eden)
		edStr := fmt.Sprintf("%.1f", ed)
		if ed == 0 {
			edStr = "FAIL"
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.0f%%\t%s\t\n", b, tri, ref, 100*tri/ref, edStr)
	}
	w.Flush()
	sb.WriteString("paper: Triolet at 23-100% of C+MPI+OpenMP; 9.6-99x over sequential C\n")
	return sb.String()
}
