package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: fewer, and the percentile is one or two outliers, not a
// property of the system.
const minBeyond = 10

// percentileLadder lists the percentiles the benchmark is willing to
// report, lowest first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile under the nearest-rank definition used by percentile.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// highestPercentile picks the highest percentile of the ladder that n
// samples support; 0 if not even the median has minBeyond samples above.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the zero-based nearest-rank index of the p-th percentile.
func rank(n int, p float64) int {
	// Integer arithmetic in tenths of a percent: 99.9/100*10000 is not
	// 9990 in floating point.
	i := (int(math.Round(p*10))*n+999)/1000 - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the p-th percentile of sorted (ascending) values.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quietShare is the stolen share of CPU time up to which a segment counts
// as measured on a quiet machine.
const quietShare = 0.02

// quietSegments picks the segments a phase reports from. On a virtual
// machine the hypervisor can withhold the CPU for seconds at a time, which
// the guest sees as stolen time; a segment that lost more than quietShare
// of its CPU that way measured the neighbours, not the program. Such
// segments are dropped, but never more than half of a phase: when the
// whole phase was noisy the quietest half stands in, and the run's notes
// say so.
func quietSegments(stolen []float64) []bool {
	keep := make([]bool, len(stolen))
	kept := 0
	for i, s := range stolen {
		if s <= quietShare {
			keep[i] = true
			kept++
		}
	}
	need := (len(stolen) + 1) / 2
	if kept >= need {
		return keep
	}
	order := make([]int, len(stolen))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return stolen[order[a]] < stolen[order[b]] })
	for _, i := range order[:need] {
		keep[i] = true
	}
	return keep
}
