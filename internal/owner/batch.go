package owner

import (
	"fmt"
	"runtime"
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
// work across them: every query's sensitive bin goes to the technique in
// one call (searchEnc; so NoInd pulls the attribute column once per batch,
// DPF-PIR and ShamirScan scan their tables once per batch), the
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

// queryBatchShared is the batched fast path: one bins.Retrieve per query,
// then executeViewBatch under a single read lock.
func (o *Owner) queryBatchShared(ws []relation.Value, workers int) ([][]relation.Tuple, []*QueryStats, []cloud.View, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.bins == nil || o.server == nil {
		return nil, nil, nil, ErrNotOutsourced
	}
	n := len(ws)
	stats := make([]*QueryStats, n)
	matches := make([]func(relation.Value) bool, n)
	sens := make([][]relation.Value, n)
	ns := make([][]relation.Value, n)
	for i, w := range ws {
		w := w
		stats[i] = &QueryStats{}
		matches[i] = func(v relation.Value) bool { return v.Equal(w) }
		if ret, ok := o.bins.Retrieve(w); ok {
			sens[i], ns[i] = ret.SensValues, ret.NSValues
		}
		// A value absent from both partitions fetches nothing; its view
		// stays empty, exactly like sequential Query.
	}
	out, views, err := o.executeViewBatch(matches, sens, ns, stats, workers)
	if err != nil {
		return nil, nil, nil, err
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

	// The plaintext fetches do not depend on the cryptographic work, so
	// they run on the pool concurrently with the encrypted search below.
	// The pool is waited for on every path, so no worker outlives the
	// caller's lock.
	// Queries whose selection values fall in the same non-sensitive bin
	// issue the exact same whole-bin search (Bins.Retrieve hands out one
	// shared value slice per bin), so each distinct bin is fetched once
	// and the result shared. Identity is by slice backing: distinct bins
	// never share a first element address, and callers only read the
	// shared result. This is the plaintext counterpart of the technique
	// sharing its column pull across the batch.
	plains := make([][]relation.Tuple, n)
	reps := plainIdx[:0:0]
	share := make([]int, len(plainIdx))
	repFor := make(map[*relation.Value]int, len(plainIdx))
	for k, i := range plainIdx {
		key := &nsValues[i][0]
		ri, ok := repFor[key]
		if !ok {
			ri = len(reps)
			reps = append(reps, i)
			repFor[key] = ri
		}
		share[k] = ri
	}
	plainShared := make([][]relation.Tuple, len(reps))
	search := o.plainSearch()
	plainPool := startPool(len(reps), normalizeWorkers(workers, len(reps)), func(k int) {
		plainShared[k] = search(nsValues[reps[k]])
	})

	var payloadBatches [][][]byte
	var encSts []*technique.Stats
	if len(encIdx) > 0 {
		queries := make([][]relation.Value, len(encIdx))
		for k, i := range encIdx {
			queries[k] = sensValues[i]
		}
		var err error
		payloadBatches, encSts, err = searchEnc(o.tech, queries)
		if err != nil {
			plainPool.Wait()
			return nil, nil, err
		}
	}
	plainPool.Wait()
	for k, i := range plainIdx {
		plains[i] = plainShared[share[k]]
	}

	for k, i := range encIdx {
		per := encSts[k]
		if per == nil {
			per = &technique.Stats{}
		}
		sts[i].Enc = *per
		views[i].EncResultAddrs = per.ReturnedAddrs
		var err error
		out[i], err = o.mergeEnc(payloadBatches[k], matches[i], sts[i], out[i])
		if err != nil {
			return nil, nil, err
		}
	}
	for _, i := range plainIdx {
		views[i].PlainResults = plains[i]
		out[i] = o.mergePlain(plains[i], matches[i], sts[i], out[i])
	}
	for i := range out {
		relation.SortByID(out[i])
		sts[i].Result = len(out[i])
	}
	return out, views, nil
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
