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
// through fallbackSearchBatch.

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
// cross-query work to share: every query runs through Search, concurrently
// over a bounded worker pool (Technique implementations are documented as
// safe for concurrent Search), and the per-query stats are folded into one
// batch-level aggregate. Results and stats are identical to a sequential
// loop; on failure the lowest-index error is returned and the whole batch
// fails.
func fallbackSearchBatch(t Technique, queries [][]relation.Value) ([][][]byte, *Stats, error) {
	nq := len(queries)
	agg := &Stats{PerQuery: make([]*Stats, nq)}
	out := make([][][]byte, nq)
	if nq == 0 {
		return out, agg, nil
	}
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
				out[i], agg.PerQuery[i], errs[i] = t.Search(queries[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, st := range agg.PerQuery {
		agg.Add(st)
	}
	return out, agg, nil
}

// binReps maps each query to the lowest index carrying the same predicate
// slice. Bins.Retrieve hands out one shared value slice per bin, so such
// queries are one bin retrieval: a scan-shaped technique matches and
// fetches it once and shares the rows. Distinct bins never share a first
// element address.
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
