// Command qbbench regenerates every table and figure of the paper's
// evaluation. By default it runs laptop-scale configurations; -full uses
// the paper's dataset sizes (150K/1.5M/4.5M tuples), which takes
// considerably longer.
//
// Usage:
//
//	qbbench [-exp all|NAME] [-full] [-seed N]
//
// -exp all (the default) runs every experiment in turn; `qbbench -h`
// lists the names. -cpuprofile/-memprofile write pprof profiles of the
// selected experiments (see docs/BENCHMARKS.md for the analysis
// workflow).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profile"
)

// table wraps one experiment's single table as the list exps returns.
func table(t *experiments.Table, err error) ([]*experiments.Table, error) {
	return []*experiments.Table{t}, err
}

// exps is the one list of experiments, in the order -exp all runs them.
// Each returns the tables it prints.
var exps = []struct {
	name string
	run  func(full bool, seed int64) ([]*experiments.Table, error)
}{
	{"table2", func(bool, int64) ([]*experiments.Table, error) {
		naive, qb, err := experiments.TablesIIandIII()
		return []*experiments.Table{naive, qb}, err
	}},
	{"table4", func(bool, int64) ([]*experiments.Table, error) {
		return table(experiments.TableIVandFigure4())
	}},
	{"fig5", func(bool, int64) ([]*experiments.Table, error) {
		return table(experiments.FigureV(), nil)
	}},
	{"fig6a", func(bool, int64) ([]*experiments.Table, error) {
		return table(experiments.Figure6a(), nil)
	}},
	{"fig6b", func(full bool, seed int64) ([]*experiments.Table, error) {
		spec := experiments.DefaultFig6b()
		spec.Seed = seed
		if full {
			spec.Sizes = []int{150_000, 1_500_000, 4_500_000}
		}
		return table(experiments.Figure6b(spec))
	}},
	{"fig6c", func(full bool, seed int64) ([]*experiments.Table, error) {
		spec := experiments.DefaultFig6c()
		spec.Seed = seed
		if full {
			spec.Tuples, spec.DistinctValues, spec.Queries = 600_000, 36_000, 16
		}
		return table(experiments.Figure6c(spec))
	}},
	{"table6", func(bool, int64) ([]*experiments.Table, error) {
		return table(experiments.TableVI())
	}},
	{"security", func(_ bool, seed int64) ([]*experiments.Table, error) {
		return table(experiments.SecurityAblation(seed))
	}},
	{"metadata", func(full bool, seed int64) ([]*experiments.Table, error) {
		n := 10_000
		if full {
			n = 6_000_000
		}
		return table(experiments.MetadataSizes(n, seed))
	}},
	{"insert", func(full bool, seed int64) ([]*experiments.Table, error) {
		n, k := 5_000, 20
		if full {
			n, k = 500_000, 200
		}
		return table(experiments.InsertCost(n, k, seed))
	}},
}

// names lists -exp's accepted values.
func names() string {
	all := []string{"all"}
	for _, e := range exps {
		all = append(all, e.name)
	}
	return strings.Join(all, ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+names()+")")
	full := flag.Bool("full", false, "use the paper's dataset sizes (slow)")
	seed := flag.Int64("seed", 1, "seed for data generation and binning")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run here (pprof)")
	memProf := flag.String("memprofile", "", "write a heap profile at exit here (pprof)")
	flag.Parse()

	stopProf, err := profile.Start("qbbench", *cpuProf, *memProf)
	if err == nil {
		err = run(os.Stdout, *exp, *full, *seed)
		stopProf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbbench:", err)
		os.Exit(1)
	}
}

// run prints the tables of the experiment named exp, or of every
// experiment for "all", to w.
func run(w io.Writer, exp string, full bool, seed int64) error {
	ran := false
	for _, e := range exps {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		tabs, err := e.run(full, seed)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			t.Fprint(w)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, names())
	}
	return nil
}
