// Command qbbench regenerates every table and figure of the paper's
// evaluation. By default it runs laptop-scale configurations; -full uses
// the paper's dataset sizes (150K/1.5M/4.5M tuples), which takes
// considerably longer.
//
// Usage:
//
//	qbbench [-exp all|fig5|fig6a|fig6b|fig6c|table2|table4|table6|security|metadata|insert] [-full] [-seed N]
//
// -cpuprofile/-memprofile write pprof profiles of the selected experiments
// (see docs/BENCHMARKS.md for the analysis workflow).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/profile"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig5, fig6a, fig6b, fig6c, table2, table4, table6, security, metadata, insert)")
	full := flag.Bool("full", false, "use the paper's dataset sizes (slow)")
	seed := flag.Int64("seed", 1, "seed for data generation and binning")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run here (pprof)")
	memProf := flag.String("memprofile", "", "write a heap profile at exit here (pprof)")
	flag.Parse()

	stopProf, err := profile.Start("qbbench", *cpuProf, *memProf)
	if err == nil {
		err = run(*exp, *full, *seed)
		stopProf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbbench:", err)
		os.Exit(1)
	}
}

func run(exp string, full bool, seed int64) error {
	all := exp == "all"
	out := os.Stdout

	if all || exp == "table2" {
		naive, qb, err := experiments.TablesIIandIII()
		if err != nil {
			return err
		}
		naive.Fprint(out)
		qb.Fprint(out)
	}
	if all || exp == "table4" {
		tab, err := experiments.TableIVandFigure4()
		if err != nil {
			return err
		}
		tab.Fprint(out)
	}
	if all || exp == "fig5" {
		experiments.FigureV().Fprint(out)
	}
	if all || exp == "fig6a" {
		experiments.Figure6a().Fprint(out)
	}
	if all || exp == "fig6b" {
		spec := experiments.DefaultFig6b()
		spec.Seed = seed
		if full {
			spec.Sizes = []int{150_000, 1_500_000, 4_500_000}
		}
		tab, err := experiments.Figure6b(spec)
		if err != nil {
			return err
		}
		tab.Fprint(out)
	}
	if all || exp == "fig6c" {
		spec := experiments.DefaultFig6c()
		spec.Seed = seed
		if full {
			spec.Tuples, spec.DistinctValues, spec.Queries = 600_000, 36_000, 16
		}
		tab, err := experiments.Figure6c(spec)
		if err != nil {
			return err
		}
		tab.Fprint(out)
	}
	if all || exp == "table6" {
		tab, err := experiments.TableVI()
		if err != nil {
			return err
		}
		tab.Fprint(out)
	}
	if all || exp == "security" {
		tab, err := experiments.SecurityAblation(seed)
		if err != nil {
			return err
		}
		tab.Fprint(out)
	}
	if all || exp == "metadata" {
		n := 10_000
		if full {
			n = 6_000_000
		}
		tab, err := experiments.MetadataSizes(n, seed)
		if err != nil {
			return err
		}
		tab.Fprint(out)
	}
	if all || exp == "insert" {
		n, k := 5_000, 20
		if full {
			n, k = 500_000, 200
		}
		tab, err := experiments.InsertCost(n, k, seed)
		if err != nil {
			return err
		}
		tab.Fprint(out)
	}

	switch exp {
	case "all", "fig5", "fig6a", "fig6b", "fig6c", "table2", "table4", "table6", "security", "metadata", "insert":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
