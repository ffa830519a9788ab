package technique

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/storage"
)

// This file holds the two adapters between the per-query and the batched
// form of a search. Each technique implements the form it does natively
// and derives the other from one of them: the scan-shaped techniques
// (NoInd, DPF-PIR, ShamirScan) share their scan across a batch and answer
// a single Search through searchOne; the index-shaped ones (Arx, DetIndex)
// and the simulated cost models are per-query by nature and answer a batch
// through fallbackSearchBatch, one Search per distinct bin.

// searchOne answers one selection as a batch of one. The batch-level
// counters already hold the whole cost of the call; the query's access
// pattern moves up from PerQuery[0].
func searchOne(t Technique, values []relation.Value) ([][]byte, *Stats, error) {
	out, st, err := t.SearchBatch([][]relation.Value{values})
	if err != nil {
		return nil, nil, err
	}
	st.ReturnedAddrs = st.PerQuery[0].ReturnedAddrs
	st.PerQuery = nil
	return out[0], st, nil
}

// fallbackSearchBatch implements SearchBatch for techniques with no
// cross-query scan to share: each distinct bin retrieval (binReps) runs
// through Search once, concurrently over a bounded worker pool (Technique
// implementations are documented as safe for concurrent Search), and a
// repeated one shares its answer. Results and per-query stats are
// identical to a sequential loop; on failure the lowest-index error is
// returned and the whole batch fails.
func fallbackSearchBatch(t Technique, queries [][]relation.Value) ([][][]byte, *Stats, error) {
	nq := len(queries)
	agg := &Stats{PerQuery: make([]*Stats, nq)}
	out := make([][][]byte, nq)
	if nq == 0 {
		return out, agg, nil
	}
	rep := binReps(queries)
	errs := make([]error, nq)
	workers := runtime.GOMAXPROCS(0)
	if workers > nq {
		workers = nq
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nq {
					return
				}
				if rep[i] == i {
					out[i], agg.PerQuery[i], errs[i] = t.Search(queries[i])
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	// shareBins folds every query's transfers and simulated charge, so a
	// representative contributes only the rest of its work here.
	for i, per := range agg.PerQuery {
		if rep[i] != i {
			agg.PerQuery[i] = &Stats{}
			continue
		}
		work := *per
		work.TuplesTransferred, work.BytesTransferred, work.SimulatedTime = 0, 0, 0
		agg.Add(&work)
	}
	shareBins(rep, agg, out)
	return out, agg, nil
}

// binReps maps each query to the lowest index carrying the same predicate
// slice. Bins.Retrieve hands out one shared value slice per bin, so such
// queries are one bin retrieval, searched once. Distinct bins never share
// a first element address.
func binReps(queries [][]relation.Value) []int {
	rep := make([]int, len(queries))
	firstFor := make(map[*relation.Value]int, len(queries))
	for i, q := range queries {
		rep[i] = i
		if len(q) == 0 {
			continue
		}
		if j, ok := firstFor[&q[0]]; ok {
			rep[i] = j
		} else {
			firstFor[&q[0]] = i
		}
	}
	return rep
}

// shareBins gives each repeated bin retrieval its representative's
// payloads, access pattern, transfers and simulated charge, and folds
// every query's transfers and charge into agg.
func shareBins(rep []int, agg *Stats, out [][][]byte) {
	for qi, per := range agg.PerQuery {
		if r := rep[qi]; r != qi {
			repPer := agg.PerQuery[r]
			per.TuplesTransferred = repPer.TuplesTransferred
			per.BytesTransferred = repPer.BytesTransferred
			per.ReturnedAddrs = repPer.ReturnedAddrs
			per.SimulatedTime = repPer.SimulatedTime
			out[qi] = out[r]
		}
		agg.TuplesTransferred += per.TuplesTransferred
		agg.BytesTransferred += per.BytesTransferred
		agg.SimulatedTime += per.SimulatedTime
	}
}

// fetchBatch retrieves each address list's rows in one batched round trip,
// counted into st.Rounds, and checks the answer (checkFetch).
func fetchBatch(store EncStore, addrBatches [][]int, st *Stats) ([][]storage.EncRow, error) {
	st.Rounds++
	out, err := store.FetchBatch(addrBatches)
	if err != nil {
		return nil, err
	}
	if len(out) != len(addrBatches) {
		return nil, fmt.Errorf("technique: batched fetch returned %d row sets for %d address lists", len(out), len(addrBatches))
	}
	for i, addrs := range addrBatches {
		if err := checkFetch(addrs, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fetch retrieves one address list's rows and checks the answer.
func fetch(store EncStore, addrs []int) ([]storage.EncRow, error) {
	rows, err := store.Fetch(addrs)
	if err == nil {
		err = checkFetch(addrs, rows)
	}
	return rows, err
}

// checkFetch is the check every fetch answer passes before a technique
// uses it: row j is the row at addrs[j], none missing and none extra, so a
// store that drops or reorders rows cannot turn into a short result or
// payloads attributed to the wrong address.
func checkFetch(addrs []int, rows []storage.EncRow) error {
	if len(rows) != len(addrs) {
		return fmt.Errorf("technique: fetch returned %d rows for %d addresses", len(rows), len(addrs))
	}
	for j, r := range rows {
		if r.Addr != addrs[j] {
			return fmt.Errorf("technique: fetch returned address %d where %d was asked for", r.Addr, addrs[j])
		}
	}
	return nil
}
