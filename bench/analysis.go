package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro"
)

// layerTable is where the time of one typical operation of a kind goes:
// mean self time per layer over the operations whose latency lies between
// the kind's first and third quartile, in microseconds. Means over that
// band add up to the band's mean wall time, which a table of per-layer
// medians would not; the band keeps the tail out of the typical op.
type layerTable struct {
	n, band int                // operations of the kind, and how many of them are in the band
	wall    float64            // mean wall time of the band
	self    map[string]float64 // by layer: "owner", "technique", or a wire class
	calls   map[string]float64 // calls per op, by wire class
	overlap float64            // self times summed minus wall: work that ran side by side
}

// layerOf maps a span name to its row of the table.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "owner."):
		return "owner"
	case strings.HasPrefix(name, "technique."):
		return "technique"
	}
	return name
}

// newLayerTable builds the table of one kind of operation from every
// tenant's spans and op notes.
func newLayerTable(spans [][]span, infos [][]opInfo, kind string) *layerTable {
	t := &layerTable{self: map[string]float64{}, calls: map[string]float64{}}
	// Latency of every op of the kind, per tenant by op number; the band's
	// edges come from all tenants together.
	lat := make([]map[int]time.Duration, len(spans))
	var all []time.Duration
	for i := range spans {
		roots := map[int]time.Duration{}
		for _, s := range spans[i] {
			if s.Parent == 0 {
				roots[s.Op] = s.dur()
			}
		}
		lat[i] = map[int]time.Duration{}
		for _, in := range infos[i] {
			if in.kind == kind {
				lat[i][in.op] = roots[in.op]
				all = append(all, roots[in.op])
			}
		}
	}
	t.n = len(all)
	if t.n == 0 {
		return t
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	lo, hi := percentile(all, 25), percentile(all, 75)

	sum := 0.0
	for i := range spans {
		self := selfTimes(spans[i])
		for _, s := range spans[i] {
			d, ok := lat[i][s.Op]
			if !ok || d < lo || d > hi {
				continue
			}
			l := layerOf(s.Name)
			t.self[l] += us(self[s.ID])
			sum += us(self[s.ID])
			if s.Parent == 0 {
				t.band++
				t.wall += us(d)
			} else if l != "technique" {
				t.calls[l]++
			}
		}
	}
	n := float64(t.band)
	for l := range t.self {
		t.self[l] /= n
	}
	for l := range t.calls {
		t.calls[l] /= n
	}
	t.wall /= n
	t.overlap = sum/n - t.wall
	return t
}

// wireTime is the table's time inside cloud-facing calls, per op.
func (t *layerTable) wireTime() float64 {
	sum := 0.0
	for _, c := range wireClasses {
		sum += t.self[c]
	}
	return sum
}

// storageTime prices the op's cloud-facing calls at what the same calls
// cost against the local replica.
func (t *layerTable) storageTime(rep *replayResult) float64 {
	sum := 0.0
	for _, c := range wireClasses {
		sum += t.calls[c] * us(rep.mean(c))
	}
	return sum
}

// render prints the table with the rows that make it add up to the
// untraced median measured in the same deployment.
func (t *layerTable) render(workload, kind string, untracedUs float64, rep *replayResult) []string {
	out := []string{fmt.Sprintf("where the time goes: %s, one typical %s (mean of the %d of %d traced %ss between p25 and p75), us",
		workload, kind, t.band, t.n, kind)}
	row := func(name, detail string, v float64) {
		out = append(out, fmt.Sprintf("  %-18s %-22s %10.1f  %5.1f%%", name, detail, v, 100*v/t.wall))
	}
	row("owner", "self", t.self["owner"])
	row("technique", "self", t.self["technique"])
	for _, c := range append(append([]string(nil), wireClasses...), classAdd) {
		if t.calls[c] > 0 {
			row(c, fmt.Sprintf("%.2f calls/%s", t.calls[c], kind), t.self[c])
		}
	}
	row("side by side", "(counted twice above)", -t.overlap)
	row("= traced wall", "", t.wall)
	if untracedUs > 0 { // a read-only workload has no untraced writes to reconcile with
		row("unexplained", "untraced p50 - traced", untracedUs-t.wall)
		row("= untraced p50", "same deployment", untracedUs)
	}
	if w := t.wireTime(); w > 0 {
		st := t.storageTime(rep)
		out = append(out, fmt.Sprintf("  of the %.1f us in cloud-facing calls, %.1f us is storage (replayed locally) and %.1f us transport",
			w, st, w-st))
	}
	return out
}

func ownerMetrics(r *runResult, readT, writeT *layerTable, infos [][]opInfo) {
	r.set("owner.query_self_us", readT.self["owner"])
	r.set("owner.insert_self_us", writeT.self["owner"])
	var reads, rows, results, fake, bin float64
	for _, in := range allReads(infos) {
		reads++
		rows += float64(in.PlainTuples + len(in.Enc.ReturnedAddrs))
		results += float64(in.Result)
		fake += float64(in.FakeDiscarded)
		bin += float64(in.BinDiscarded)
	}
	r.set("owner.rows_per_result", ratio(rows, results))
	r.set("owner.fake_discarded_per_read", ratio(fake, reads))
	r.set("owner.bin_discarded_per_read", ratio(bin, reads))
}

func allReads(infos [][]opInfo) []*repro.QueryStats {
	var out []*repro.QueryStats
	for _, per := range infos {
		for _, in := range per {
			if in.kind == "read" && in.stats != nil {
				out = append(out, in.stats)
			}
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func techniqueMetrics(r *runResult, readT *layerTable, td *traceData) {
	r.set("technique.search_self_us", readT.self["technique"])
	var reads, encops, rounds, scanned, saved float64
	for _, st := range allReads(td.infos) {
		reads++
		encops += float64(st.Enc.EncOps)
		rounds += float64(st.Enc.Rounds)
		scanned += float64(st.Enc.TuplesScanned)
		saved += float64(st.Enc.CacheBytesSaved)
	}
	r.set("technique.encops_per_read", ratio(encops, reads))
	r.set("technique.rounds_per_read", ratio(rounds, reads))
	r.set("technique.rows_scanned_per_read", ratio(scanned, reads))
	r.set("technique.cache.hit_ratio", ratio(td.cacheHits, td.cacheHits+td.cacheMiss))
	r.set("technique.cache.bytes", td.cacheBytes)
	r.set("technique.cache.bytes_saved_per_read", ratio(saved, reads))
}

// classMeans is the mean wall time of every cloud-facing call class over
// all traced spans.
func classMeans(spans [][]span) map[string]time.Duration {
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for _, per := range spans {
		for _, s := range per {
			sum[s.Name] += s.dur()
			n[s.Name]++
		}
	}
	out := map[string]time.Duration{}
	for c, d := range sum {
		out[c] = d / time.Duration(n[c])
	}
	return out
}

// wireMetrics reports the cloud-facing calls of the steady ops, and of
// the write tail where that is the only place a workload writes.
func wireMetrics(r *runResult, readT *layerTable, steady, tail *traceData, rep *replayResult) {
	means := classMeans(append(steady.spans, tail.spans...))
	for _, c := range wireClasses {
		r.set(c+"_us", us(means[c]))
	}
	r.set("wire.transport_share", ratio(readT.wireTime()-readT.storageTime(rep), readT.wall))

	var reads, writes, readBytes, writeBytes float64
	for _, per := range append(steady.infos, tail.infos...) {
		for _, in := range per {
			switch in.kind {
			case "read":
				reads++
				readBytes += float64(in.bytes)
			case "write":
				writes++
				writeBytes += float64(in.bytes)
			}
		}
	}
	r.set("wire.bytes_per_read", ratio(readBytes, reads))
	r.set("wire.bytes_per_write", ratio(writeBytes, writes))
	// The server's counters were read around the steady segments; on a
	// mixed workload its ops are reads and writes alike.
	r.set("wire.server_ops_per_read", ratio(steady.serverOps, steady.steadyOps))
	r.set("wire.cond_hit_ratio", ratio(steady.condHits, steady.serverOps))
}
