package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// record is one run as -o appends it: one JSON object per line.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// resultPath places a bare file name under outDir.
func resultPath(name string) string {
	if strings.ContainsRune(name, filepath.Separator) {
		return name
	}
	return filepath.Join(outDir, name)
}

func appendResult(name, workload string, seed uint64, trace int, res result) error {
	path := resultPath(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(name string) ([]record, error) {
	f, err := os.Open(resultPath(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// gate is one end-to-end metric of BENCHMARK.json.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readGates() ([]gate, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance check of the benchmark contract uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; zero
// for fewer than two values, which have no spread to speak of.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to two sets of runs: unresolved when
// either side's own spread is wider than the bound, worse when B's median
// is worse than A's by more than the bound, within otherwise.
func judge(g gate, a, b []float64) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if g.Better == "higher" {
		worse = -change
	}
	switch {
	case spread(a) > g.Bound || spread(b) > g.Bound:
		return verdictUnresolved, change
	case worse > g.Bound:
		return verdictWorse, change
	}
	return verdictWithin, change
}

// compareMain implements -compare A B: one row per workload and
// end-to-end metric, and a non-zero exit unless every row is within.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	gates, err := readGates()
	if err == nil && len(gates) == 0 {
		err = fmt.Errorf("BENCHMARK.json lists no end_to_end metrics")
	}
	var sides [2][]record
	for i := 0; i < 2 && err == nil; i++ {
		sides[i], err = readRecords(args[i])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	bad := 0
	values := func(rs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && r.Trace == 0 {
				if m, ok := r.Metrics[metric]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	for i, rs := range sides {
		for _, r := range rs {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("%s: %s seed %d: %d of %d ops failed\n", args[i], r.Workload, r.Seed, r.Failed, r.Attempted)
				bad++
			}
		}
	}
	fmt.Printf("%-12s %-14s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound", "verdict")
	for _, w := range workloads {
		for _, g := range gates {
			a, b := values(sides[0], w.name, g.Name), values(sides[1], w.name, g.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, change := judge(g, a, b)
			if v != verdictWithin {
				bad++
			}
			fmt.Printf("%-12s %-14s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (%d vs %d runs)\n",
				w.name, g.Name, median(a), median(b), 100*change, 100*spread(a), 100*spread(b), 100*g.Bound, v, len(a), len(b))
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// commit names the tree the benchmark was built from, when the build
// recorded it.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "unknown"
}
