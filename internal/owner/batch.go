package owner

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/relation"
	"repro/internal/technique"
)

// This file implements the one query executor, executeViewBatch. Every
// selection runs through it, a single one as a batch of one (executeOne):
// the encrypted side of every query goes to the cloud as ONE technique
// call (searchEnc) — scan-shaped techniques share their column pull /
// table scan across the whole batch instead of re-doing it per query —
// while the plaintext bin fetches fan out over a bounded worker pool
// concurrently with it. Batch execution is observationally equivalent to a
// sequential loop over Query: the same result per query, and — because
// views are detached from execution and logged in input order — the same
// adversarial-view log.

// BatchResult is one completed query of a streaming batch.
type BatchResult struct {
	// Index is the position of the query in the submitted slice.
	Index int
	// Query is the selection value.
	Query relation.Value
	// Tuples is the merged, fake- and co-resident-filtered answer.
	Tuples []relation.Tuple
	// Stats is the cost breakdown of this query.
	Stats *QueryStats
	// Err is the per-query failure, if any.
	Err error

	// view is the detached adversarial view; QueryBatch records it with
	// the cloud in input order once the whole batch has run.
	view cloud.View
}

// normalizeWorkers clamps a worker count to [1, n] with GOMAXPROCS as the
// default for non-positive requests.
func normalizeWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// startPool fans f over the indices [0, n) on at most the given number of
// worker goroutines and returns at once; Wait on the result blocks until
// all have finished.
func startPool(n, workers int, f func(i int)) *sync.WaitGroup {
	var next atomic.Int64
	wg := new(sync.WaitGroup)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	return wg
}

// QueryBatch executes the selections ws as one batch, sharing cloud-side
// work across them: each distinct value is answered once, every query's
// sensitive bin goes to the technique in one call (searchEnc; so NoInd
// pulls the attribute column once per batch, DPF-PIR and ShamirScan scan
// their tables once per batch, DetIndex and Arx search each distinct bin
// once), q_merge reads each bin once for all its selections, NoInd's
// matched tuples come back in one batched fetch round trip on remote
// backends, and the plaintext bin fetches fan out over a bounded worker
// pool (workers <= 0 selects GOMAXPROCS). It returns the per-query answers
// and stats, indexed like ws; on the batched path each QueryStats.Enc is
// the query's attributable slice of the batch (its access pattern and
// result transfers), with shared work counted once at the technique level.
//
// The batch is observationally equivalent to a sequential loop over Query:
// each answer is identical, and the adversarial views are recorded with the
// cloud in input order after all queries finish, so the view log matches
// the sequential one exactly. If any query fails, the error of the
// lowest-index failure is returned and only the views of the queries
// preceding it are logged — the prefix a sequential loop stopping at the
// first error would have produced. (Queries past the failure may already
// have executed; their cloud interactions happened but are not logged,
// exactly as a crashed sequential client would leave the log.)
func (o *Owner) QueryBatch(ws []relation.Value, workers int) ([][]relation.Tuple, []*QueryStats, error) {
	n := len(ws)
	if n == 0 {
		return nil, nil, nil
	}
	out, stats, views, err := o.queryBatchShared(ws, workers)
	if err != nil {
		// A shared-path failure cannot be attributed to a single query
		// (the whole batch shares one search), so re-run per query to
		// reproduce the sequential failure semantics exactly: lowest-index
		// error, prefix of views. The shared attempt's cloud interactions
		// happened but are not logged — the same contract as a crashed
		// sequential client.
		return o.queryBatchPerQuery(ws, workers)
	}
	for _, v := range views {
		o.RecordView(v)
	}
	return out, stats, nil
}

// queryBatchShared is the batched fast path: each distinct selection
// value is answered once — one bins.Retrieve, then executeViewBatch under a
// single read lock — and a repeated value gets its own copy of that
// answer, its own QueryStats and, at its own input index, the view.
func (o *Owner) queryBatchShared(ws []relation.Value, workers int) ([][]relation.Tuple, []*QueryStats, []cloud.View, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.bins == nil || o.server == nil {
		return nil, nil, nil, ErrNotOutsourced
	}
	n := len(ws)
	at := make(map[relation.Value]int, n) // value -> its place in uniq
	var uniq []int                        // input index of each distinct value
	for i, w := range ws {
		if _, ok := at[w]; !ok {
			at[w] = len(uniq)
			uniq = append(uniq, i)
		}
	}
	matches := make([]func(relation.Value) bool, len(uniq))
	sens := make([][]relation.Value, len(uniq))
	ns := make([][]relation.Value, len(uniq))
	sts := make([]*QueryStats, len(uniq))
	for k, i := range uniq {
		w := ws[i]
		sts[k] = &QueryStats{}
		matches[k] = func(v relation.Value) bool { return v.Equal(w) }
		if ret, ok := o.bins.Retrieve(w); ok {
			sens[k], ns[k] = ret.SensValues, ret.NSValues
		}
		// A value absent from both partitions fetches nothing; its view
		// stays empty, exactly like sequential Query.
	}
	answers, uniqViews, err := o.executeViewBatch(matches, sens, ns, sts, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([][]relation.Tuple, n)
	stats := make([]*QueryStats, n)
	views := make([]cloud.View, n)
	for i, w := range ws {
		k := at[w]
		out[i], stats[i], views[i] = answers[k], sts[k], uniqViews[k]
		if uniq[k] != i {
			st := *sts[k]
			out[i], stats[i] = slices.Clone(answers[k]), &st
		}
	}
	return out, stats, views, nil
}

// queryBatchPerQuery is the per-query engine (one QueryDetached per
// selection over the worker pool). QueryBatch falls back to it when the
// shared path fails, because only per-query execution can attribute a
// failure to the lowest-index failing query the way a sequential loop
// would.
func (o *Owner) queryBatchPerQuery(ws []relation.Value, workers int) ([][]relation.Tuple, []*QueryStats, error) {
	n := len(ws)
	results := make([]BatchResult, n)
	startPool(n, normalizeWorkers(workers, n), func(i int) {
		ts, st, view, err := o.QueryDetached(ws[i])
		results[i] = BatchResult{Index: i, Query: ws[i], Tuples: ts, Stats: st, Err: err}
		if err == nil {
			results[i].view = view
		}
	}).Wait()

	out := make([][]relation.Tuple, n)
	stats := make([]*QueryStats, n)
	for i, r := range results {
		if r.Err != nil {
			return nil, nil, r.Err
		}
		o.RecordView(r.view)
		out[i] = r.Tuples
		stats[i] = r.Stats
	}
	return out, stats, nil
}

// executeOne runs one selection — any match predicate on the searchable
// attribute over the given sensitive and non-sensitive bin values —
// through executeViewBatch. Must be called with o.mu held (read suffices);
// the view is NOT recorded.
func (o *Owner) executeOne(match func(relation.Value) bool, sensValues, nsValues []relation.Value, st *QueryStats) ([]relation.Tuple, cloud.View, error) {
	out, views, err := o.executeViewBatch([]func(relation.Value) bool{match},
		[][]relation.Value{sensValues}, [][]relation.Value{nsValues}, []*QueryStats{st}, 1)
	if err != nil {
		return nil, cloud.View{}, err
	}
	return out[0], views[0], nil
}

// searchEnc runs the encrypted half of a batch as one call into tech and
// returns one payload set and one Stats per query. A batch of one goes
// through Search, so its Stats is the whole cost of the call — the shared
// column pull or scan, cache hits and simulated time included — as a
// single query has always reported it.
func searchEnc(tech technique.Technique, queries [][]relation.Value) ([][][]byte, []*technique.Stats, error) {
	if len(queries) == 1 {
		payloads, st, err := tech.Search(queries[0])
		if err != nil {
			return nil, nil, err
		}
		return [][][]byte{payloads}, []*technique.Stats{st}, nil
	}
	out, st, err := tech.SearchBatch(queries)
	if err != nil {
		return nil, nil, err
	}
	if len(out) != len(queries) || st == nil || len(st.PerQuery) != len(queries) {
		return nil, nil, fmt.Errorf("owner: SearchBatch returned %d payload sets and malformed stats for %d queries",
			len(out), len(queries))
	}
	return out, st.PerQuery, nil
}

// executeViewBatch runs n selections' sub-queries, the encrypted side as
// one searchEnc call — sharing column pulls and table scans across the
// batch — and the plaintext side on the worker pool concurrently with it,
// and returns the merged per-query results together with the per-query
// adversarial views. Must be called with o.mu held (read suffices); views
// are NOT recorded — the caller logs them in input order so the view log
// matches a sequential loop.
func (o *Owner) executeViewBatch(matches []func(relation.Value) bool, sensValues, nsValues [][]relation.Value, sts []*QueryStats, workers int) ([][]relation.Tuple, []cloud.View, error) {
	n := len(matches)
	out := make([][]relation.Tuple, n)
	views := make([]cloud.View, n)
	var encIdx, plainIdx []int
	for i := range matches {
		views[i] = cloud.View{PlainValues: nsValues[i], EncPredicates: len(sensValues[i])}
		if len(sensValues[i]) > 0 {
			encIdx = append(encIdx, i)
		}
		if len(nsValues[i]) > 0 {
			plainIdx = append(plainIdx, i)
		}
	}

	// The plaintext fetches, one per distinct bin, do not depend on the
	// cryptographic work, so they run on the pool concurrently with the
	// encrypted search below. The pool is waited for on every path, so no
	// worker outlives the caller's lock.
	plainGroups := binGroups(plainIdx, nsValues)
	plains := make([][]relation.Tuple, len(plainGroups))
	search := o.plainSearch()
	plainPool := startPool(len(plainGroups), normalizeWorkers(workers, len(plainGroups)), func(k int) {
		plains[k] = search(nsValues[plainGroups[k][0]])
	})

	payloads := make([][][]byte, n)
	if len(encIdx) > 0 {
		queries := make([][]relation.Value, len(encIdx))
		for k, i := range encIdx {
			queries[k] = sensValues[i]
		}
		payloadBatches, encSts, err := searchEnc(o.tech, queries)
		if err != nil {
			plainPool.Wait()
			return nil, nil, err
		}
		for k, i := range encIdx {
			per := encSts[k]
			if per == nil {
				per = &technique.Stats{}
			}
			sts[i].Enc = *per
			views[i].EncResultAddrs = per.ReturnedAddrs
			payloads[i] = payloadBatches[k]
		}
	}
	plainPool.Wait()

	// q_merge reads each bin once for all the selections that retrieved it.
	for _, g := range binGroups(encIdx, sensValues) {
		if err := o.mergeEnc(payloads[g[0]], g, matches, sts, out); err != nil {
			return nil, nil, err
		}
	}
	for k, g := range plainGroups {
		for _, i := range g {
			views[i].PlainResults = plains[k]
		}
		o.mergePlain(plains[k], g, matches, sts, out)
	}
	for i := range out {
		relation.SortByID(out[i])
		sts[i].Result = len(out[i])
	}
	return out, views, nil
}

// binGroups groups the selections idx by the bin they retrieve, in order
// of first appearance. Bins.Retrieve hands out one shared value slice per
// bin, so distinct bins never share a first element. A lone selection is
// its own group, found without a map.
func binGroups(idx []int, vals [][]relation.Value) [][]int {
	switch len(idx) {
	case 0:
		return nil
	case 1:
		return [][]int{idx}
	}
	var groups [][]int
	at := make(map[*relation.Value]int, len(idx))
	for _, i := range idx {
		g, ok := at[&vals[i][0]]
		if !ok {
			g = len(groups)
			at[&vals[i][0]] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// QueryAsync streams the batch: it runs each selection as its own query
// over a GOMAXPROCS worker pool and delivers each BatchResult as soon as
// its query completes, closing the channel when the whole batch is done.
// Views are recorded at completion time, so the log order follows delivery
// order rather than input order — the multiset of views still equals the
// sequential one. Per-query failures are delivered as BatchResult.Err; the
// stream keeps going so independent queries still complete.
//
// The caller must drain the channel until it closes: abandoning it
// mid-stream blocks the workers forever once the buffer fills.
func (o *Owner) QueryAsync(ws []relation.Value) <-chan BatchResult {
	workers := normalizeWorkers(0, max(len(ws), 1))
	// One slot per worker: a worker never blocks on delivery while the
	// consumer keeps up.
	out := make(chan BatchResult, workers)
	go func() {
		defer close(out)
		startPool(len(ws), workers, func(i int) {
			ts, st, view, err := o.QueryDetached(ws[i])
			if err == nil {
				o.RecordView(view)
			}
			out <- BatchResult{Index: i, Query: ws[i], Tuples: ts, Stats: st, Err: err}
		}).Wait()
	}()
	return out
}
