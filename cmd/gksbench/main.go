// Command gksbench regenerates the tables and figures of the paper's
// evaluation (Agarwal et al., EDBT 2016, §7) over the synthetic dataset
// analogs. Each experiment prints the same rows/series the paper reports,
// alongside the paper's numbers where applicable. System-level numbers
// (boot, residency, ingest throughput, stage split) are not measured
// here: they are spine metrics of bench/run.sh.
//
// Usage:
//
//	gksbench [-scale N] [-exp name[,name...]]
//
// Experiments: table1, table4, table5, fig8, fig8s, fig9, fig10, table7,
// table8, refine, feedback, hybrid, naive, schema, meaning, recursive,
// fslca, or "all" (default). An unknown name is an error (exit 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// An experiment is one §7 table, figure or walkthrough: run computes its
// rows over the suite's datasets and prints them under a "== … ==" header.
type experiment struct {
	name string
	run  func(s *experiments.Suite, out io.Writer) error
}

// show builds an experiment's run from its header and its compute and
// print halves.
func show[T any](header string, compute func(*experiments.Suite) (T, error), print func(io.Writer, T)) func(*experiments.Suite, io.Writer) error {
	return func(s *experiments.Suite, out io.Writer) error {
		v, err := compute(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== %s ==\n", header)
		print(out, v)
		return nil
	}
}

// experimentList is every experiment, in the order "all" runs them.
var experimentList = []experiment{
	{"table1", show("Table 1: GKS vs ELCA vs SLCA on the Figure 1 tree",
		func(*experiments.Suite) ([]experiments.Table1Row, error) { return experiments.Table1() }, experiments.PrintTable1)},
	{"table4", show("Table 4: index size and preparation time",
		(*experiments.Suite).Table4, experiments.PrintTable4)},
	{"table5", show("Table 5: distribution of XML elements over node categories",
		(*experiments.Suite).Table5, experiments.PrintTable5)},
	{"fig8", show("Figure 8: response time vs merged list size (n=8)",
		(*experiments.Suite).Figure8, experiments.PrintRTPoints)},
	{"fig8s", show("Figure 8 (sampled workload)",
		func(s *experiments.Suite) ([]experiments.RTPoint, error) { return s.Figure8Sampled(8) }, experiments.PrintFigure8Sampled)},
	{"fig9", show("Figure 9: response time vs keywords in query (n)",
		(*experiments.Suite).Figure9, experiments.PrintRTPoints)},
	{"fig10", show("Figure 10: scalability over replicated datasets",
		(*experiments.Suite).Figure10, experiments.PrintFigure10)},
	{"table7", show("Table 7: comparison with SLCA and rank score",
		(*experiments.Suite).Table7, experiments.PrintTable7)},
	{"table8", show("Table 8: DI discovered for different queries",
		(*experiments.Suite).Table8, experiments.PrintTable8)},
	{"refine", show("Section 7.4: DI-driven query refinement",
		(*experiments.Suite).Refinement, experiments.PrintRefinement)},
	{"feedback", show("Section 7.5: simulated crowd feedback (GKS vs SLCA)",
		(*experiments.Suite).Feedback, experiments.PrintFeedback)},
	{"hybrid", show("Section 7.6: hybrid queries over merged repositories",
		(*experiments.Suite).Hybrid, experiments.PrintHybrid)},
	{"naive", show("Lemma 3 ablation",
		(*experiments.Suite).NaiveAblation, experiments.PrintNaiveAblation)},
	{"schema", show("Schema-aware categorization ablation (§2.2 future work)",
		(*experiments.Suite).SchemaAblation, experiments.PrintSchemaAblation)},
	{"meaning", show("Meaningfulness: precision/recall vs SLCA (§1.2)",
		(*experiments.Suite).Meaningfulness, experiments.PrintMeaningfulness)},
	{"recursive", show("Recursive DI rounds (§2.3)",
		func(s *experiments.Suite) ([]experiments.RecursiveDIRound, error) { return s.RecursiveDI(3) }, experiments.PrintRecursiveDI)},
	{"fslca", show("FSLCA (simplified MESSIAH) comparison (§7.3)",
		(*experiments.Suite).FSLCA, experiments.PrintFSLCA)},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, runs the wanted
// experiments onto out and returns the exit code (2 for a usage error,
// 1 for a failed experiment).
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("gksbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	scale := fs.Int("scale", 1, "dataset scale factor")
	exp := fs.String("exp", "all", "experiment to run (comma separated), or 'all'")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	names := make([]string, len(experimentList))
	known := map[string]bool{"all": true}
	for i, e := range experimentList {
		names[i] = e.name
		known[e.name] = true
	}
	wanted := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			fmt.Fprintf(errOut, "gksbench: unknown experiment %q; valid names: %s, all\n", name, strings.Join(names, ", "))
			return 2
		}
		wanted[name] = true
	}

	s := experiments.NewSuite(*scale)
	for _, e := range experimentList {
		if !wanted["all"] && !wanted[e.name] {
			continue
		}
		if err := e.run(s, out); err != nil {
			fmt.Fprintf(errOut, "gksbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(out)
	}
	return 0
}
