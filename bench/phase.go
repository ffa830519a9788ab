package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// phase is what one segmented phase produced.
type phase struct {
	segment time.Duration
	stolen  []float64  // share of CPU time the hypervisor withheld, per segment
	keep    []bool     // the segments the phase reports from; see quietSegments
	per     [][]sample // by caller; sample.end is relative to its segment
}

// newPhase is a phase of the given length cut into n equal segments.
func newPhase(seconds float64, n int) *phase {
	return &phase{
		segment: time.Duration(seconds / float64(n) * float64(time.Second)),
		per:     make([][]sample, tenants),
	}
}

// segmentsOf is how many segments of about segmentSeconds fill a phase.
func segmentsOf(seconds float64) int {
	return max(1, int(seconds/segmentSeconds+0.5))
}

// runFresh drives one more segment of the phase on fresh owner sessions;
// see switchSessions for why. An op still in flight when its segment ends
// belongs to no segment and is dropped.
func (d *deployment) runFresh(ph *phase, step func(t *tenant, start time.Time) (sample, bool)) error {
	if err := d.switchSessions(d.openPublic); err != nil {
		return err
	}
	ph.runSegment(d.tenants, step)
	return nil
}

// runSegment drives one more segment of the phase and decides anew which
// segments the phase reports from.
func (ph *phase) runSegment(ts []*tenant, step func(t *tenant, start time.Time) (sample, bool)) {
	seg := len(ph.stolen)
	before := readCPU()
	per := runPhase(ts, ph.segment, step)
	ph.stolen = append(ph.stolen, readCPU().stolenSince(before))
	for c, ss := range per {
		for _, x := range ss {
			if x.end <= ph.segment {
				x.seg = seg
				ph.per[c] = append(ph.per[c], x)
			}
		}
	}
	ph.keep = quietSegments(ph.stolen)
}

// clean returns the callers' samples of the kept segments.
func (ph *phase) clean() [][]sample {
	per := make([][]sample, len(ph.per))
	for c, ss := range ph.per {
		for _, x := range ss {
			if ph.keep[x.seg] {
				per[c] = append(per[c], x)
			}
		}
	}
	return per
}

// segmentRate is the median, over the kept segments, of samples completed
// per second.
func (ph *phase) segmentRate() float64 {
	counts := make([]float64, len(ph.keep))
	for _, ss := range ph.per {
		for _, x := range ss {
			counts[x.seg]++
		}
	}
	var rates []float64
	for i, k := range ph.keep {
		if k {
			rates = append(rates, counts[i]/ph.segment.Seconds())
		}
	}
	return median(rates)
}

func (ph *phase) note(r *runResult, name string) {
	kept := 0
	lo, hi := ph.stolen[0], ph.stolen[0]
	for i, s := range ph.stolen {
		lo, hi = min(lo, s), max(hi, s)
		if ph.keep[i] {
			kept++
		}
	}
	r.notef("%s: %d segments of %.2f s, stolen CPU %.1f%%..%.1f%%, %d kept", name, len(ph.stolen), ph.segment.Seconds(), 100*lo, 100*hi, kept)
}

// runPhase drives every tenant's caller closed-loop for dur: the next op
// is issued only when the previous one has returned. It returns each
// caller's samples.
func runPhase(ts []*tenant, dur time.Duration, step func(t *tenant, start time.Time) (sample, bool)) [][]sample {
	runtime.GC() // every phase starts from a collected heap
	out := make([][]sample, len(ts))
	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func(i int, t *tenant) {
			defer wg.Done()
			for time.Since(start) < dur {
				if s, ok := step(t, start); ok {
					out[i] = append(out[i], s)
				}
			}
		}(i, t)
	}
	wg.Wait()
	return out
}

func stepOp(t *tenant, start time.Time) (sample, bool)     { return t.do(t.next(), start) }
func stepBatch(t *tenant, start time.Time) (sample, bool)  { return t.doBatch(start) }
func stepInsert(t *tenant, start time.Time) (sample, bool) { return t.do(t.nextWrite(), start) }

// split pools the callers' samples and separates read from write
// latencies, each sorted ascending.
func split(per [][]sample) (reads, writes []time.Duration) {
	for _, ss := range per {
		for _, s := range ss {
			if s.read {
				reads = append(reads, s.lat)
			} else {
				writes = append(writes, s.lat)
			}
		}
	}
	for _, lat := range [][]time.Duration{reads, writes} {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	}
	return reads, writes
}

// The tail percentile each op class is gated on. Reads take a millisecond
// or more and their p99 belongs to the program: the heavy values. An insert
// takes a tenth of that, and the slowest hundredth of the inserts is where
// the host's interference collects (see README.md, "Why the write tail is
// p95"), so writes are gated on p95 and their p99 is printed beside it.
const (
	readTail  = 99
	writeTail = 95
)

// latencyMetrics reports the median and the tail percentile of one op
// class over the pooled (sorted) samples of the kept segments. Its note
// gives the sample count and every higher percentile the count supports.
func latencyMetrics(r *runResult, class string, tail float64, sorted []time.Duration) {
	r.set(class+"_p50_ms", ms(percentile(sorted, 50)))
	r.set(fmt.Sprintf("%s_p%g_ms", class, tail), ms(percentile(sorted, tail)))
	note := fmt.Sprintf("%s latency: %d samples, %d beyond p%g", class, len(sorted), samplesBeyond(len(sorted), tail), tail)
	sep := "; reported, not gated:"
	for _, p := range percentileLadder {
		if p > tail && p <= highestPercentile(len(sorted)) {
			note += fmt.Sprintf("%s p%g %.4f ms", sep, p, ms(percentile(sorted, p)))
			sep = ","
		}
	}
	r.notef("%s", note)
}

// batchRate is selections answered per second: each caller's batch size
// over its median call time, summed over the callers running side by side.
func batchRate(per [][]sample) float64 {
	var sum float64
	for _, s := range per {
		secs := make([]float64, len(s))
		for i, x := range s {
			secs[i] = x.lat.Seconds()
		}
		if m := median(secs); m > 0 {
			sum += batchSize / m
		}
	}
	return sum
}
