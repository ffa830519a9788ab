// Command bench is the repository's benchmark: it boots the real qbcloud
// and qbring binaries, outsources seeded data through the public
// repro.Client, drives four closed-loop workloads, checks every answer
// against an exact in-memory reference and reports the metrics named in
// BENCHMARK.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: hot-read, cold-scan, index-write or ring-write")
		seed     = flag.Uint64("seed", 1, "seed for datasets, op streams and bin permutations")
		seconds  = flag.Float64("seconds", 20, "measured seconds of the run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		out      = flag.String("o", "", "append the run's result as one JSON line to this file under "+outDir)
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		corrupt  = flag.Bool("corrupt", false, "self-test: corrupt one reference answer; the run must then fail")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	if err := runMain(*workload, *seed, *seconds, *trace, *out, *corrupt); err != nil {
		killAllChildren()
		fmt.Fprintf(os.Stderr, "bench: FAIL (seed %d): %v\n", *seed, err)
		os.Exit(1)
	}
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(name string, seed uint64, seconds float64, trace int, out string, corrupt bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	guardChildren(170 * time.Second)
	e := &env{seed: seed, seconds: seconds, corrupt: corrupt}
	if e.cloudBin, e.ringBin, err = buildServers(); err != nil {
		return err
	}
	for i := 0; i < tenants; i++ {
		d, err := generateDataset(seed, i, tuplesPerTen, distinctValues)
		if err != nil {
			return err
		}
		e.data = append(e.data, d)
	}

	var r *runResult
	if trace == 0 {
		if r, err = runUntraced(e, w); err == nil {
			err = r.complete(endToEnd)
		}
	} else {
		if r, err = runTraced(e, w); err == nil {
			err = r.complete(perLayer)
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d seconds %g trace %d | %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		w.name, seed, seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendResult(out, w.name, seed, trace, res); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%d of %d ops failed; first: %s", r.failed, r.attempted, r.failure)
	}
	return nil
}
