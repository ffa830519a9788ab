package technique

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// batchQueries is a workload exercising the interesting shapes: multi-value
// bins, single values, absent values, the empty predicate set, and values
// repeated across queries (shared-work dedup).
func batchQueries() [][]relation.Value {
	return [][]relation.Value{
		{relation.Int(3), relation.Int(7)},
		{relation.Int(0)},
		{relation.Int(999)},
		{},
		{relation.Int(7), relation.Int(2)},
		{relation.Int(3)},
	}
}

// definition is the clear-text answer to a selection over testRows(): the
// sorted payloads of the rows whose attribute is in values, and their
// positions, which are the rows' cloud addresses.
func definition(values []relation.Value) (payloads []string, addrs []int) {
	want := make(map[relation.Value]bool, len(values))
	for _, v := range values {
		want[v] = true
	}
	for i, r := range testRows() {
		if want[r.Attr] {
			payloads = append(payloads, string(r.Payload))
			addrs = append(addrs, i)
		}
	}
	sort.Strings(payloads)
	return payloads, addrs
}

// TestSearchBatchMatchesSearch is the technique-level equivalence property,
// checked against the definition rather than between two engines (three
// techniques answer Search with their SearchBatch): for every technique,
// Search and SearchBatch each return the payload multiset of the rows
// whose attribute is in the query, and as a sorted set of ReturnedAddrs
// exactly those rows' positions — none for DPF-PIR, which hides the
// access pattern. The two forms also agree on the payload order.
func TestSearchBatchMatchesSearch(t *testing.T) {
	// check compares one answer with the definition.
	check := func(t *testing.T, tech Technique, form string, q []relation.Value, got [][]byte, st *Stats) {
		t.Helper()
		wantPayloads, wantAddrs := definition(q)
		gotPayloads := bytesToStrings(got)
		sort.Strings(gotPayloads)
		if !slices.Equal(gotPayloads, wantPayloads) {
			t.Errorf("%s(%v) payloads %q, want %q", form, q, gotPayloads, wantPayloads)
		}
		gotAddrs := slices.Compact(slices.Sorted(slices.Values(st.ReturnedAddrs)))
		if tech.Name() == "DPF-PIR" {
			wantAddrs = nil
		}
		if !slices.Equal(gotAddrs, wantAddrs) {
			t.Errorf("%s(%v) access pattern %v, want %v", form, q, gotAddrs, wantAddrs)
		}
	}
	for name, tech := range allTechniques(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := tech.Outsource(testRows()); err != nil {
				t.Fatal(err)
			}
			queries := batchQueries()
			batch, agg, err := tech.SearchBatch(queries)
			if err != nil {
				t.Fatalf("SearchBatch: %v", err)
			}
			if len(batch) != len(queries) || agg == nil || len(agg.PerQuery) != len(queries) {
				t.Fatalf("SearchBatch returned %d payload sets and stats %+v for %d queries", len(batch), agg, len(queries))
			}
			for i, q := range queries {
				single, st, err := tech.Search(q)
				if err != nil {
					t.Fatalf("Search(%v): %v", q, err)
				}
				check(t, tech, "Search", q, single, st)
				check(t, tech, "SearchBatch", q, batch[i], agg.PerQuery[i])
				if !slices.Equal(bytesToStrings(single), bytesToStrings(batch[i])) {
					t.Errorf("query %d: Search payload order %q, SearchBatch %q", i, single, batch[i])
				}
			}
		})
	}
}

func bytesToStrings(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}

// TestSearchBatchSharesScans is the cost property the batched path exists
// for: on the scan-shaped techniques, a batch performs ONE store scan /
// column pull regardless of the number of queries, where the sequential
// loop performs one per query.
func TestSearchBatchSharesScans(t *testing.T) {
	scanShaped := map[string]bool{"noind": true, "shamir": true, "dpfpir": true}
	for name, tech := range allTechniques(t) {
		if !scanShaped[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if _, err := tech.Outsource(testRows()); err != nil {
				t.Fatal(err)
			}
			queries := [][]relation.Value{
				{relation.Int(1)}, {relation.Int(4)}, {relation.Int(8)},
			}
			// One sequential single-value query fixes the cost of one scan.
			_, single, err := tech.Search(queries[0])
			if err != nil {
				t.Fatal(err)
			}
			_, agg, err := tech.SearchBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			if agg.TuplesScanned != single.TuplesScanned {
				t.Errorf("batch of %d scanned %d tuples, want the single-query scan of %d (shared)",
					len(queries), agg.TuplesScanned, single.TuplesScanned)
			}
			// And the sequential loop really is one scan per query.
			seqTotal := 0
			for _, q := range queries {
				_, st, err := tech.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				seqTotal += st.TuplesScanned
			}
			if seqTotal != len(queries)*single.TuplesScanned {
				t.Errorf("sequential loop scanned %d, want %d (one scan per query)",
					seqTotal, len(queries)*single.TuplesScanned)
			}
		})
	}
}

// TestSearchBatchEmpty: a zero-length batch succeeds with no work.
func TestSearchBatchEmpty(t *testing.T) {
	for name, tech := range allTechniques(t) {
		t.Run(name, func(t *testing.T) {
			out, st, err := tech.SearchBatch(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 0 || st == nil || len(st.PerQuery) != 0 {
				t.Fatalf("empty batch: out=%v stats=%+v", out, st)
			}
		})
	}
}

// TestSearchBatchSharedDecryptsOnce: a tuple matched by several queries in
// one NoInd batch is decrypted once — EncOps counts the shared open once
// where the sequential loop pays per query.
func TestSearchBatchSharedDecryptsOnce(t *testing.T) {
	tech, err := NewNoInd(testKeys())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	// Both queries hit value 5 (6 rows); 55 attr decrypts + 6 tuple opens.
	dup := [][]relation.Value{{relation.Int(5)}, {relation.Int(5)}}
	_, agg, err := tech.SearchBatch(dup)
	if err != nil {
		t.Fatal(err)
	}
	if want := 55 + 6; agg.EncOps != want {
		t.Errorf("duplicate-query batch EncOps = %d, want %d (column pass + one open per distinct tuple)",
			agg.EncOps, want)
	}
	for i, per := range agg.PerQuery {
		if len(per.ReturnedAddrs) != 6 {
			t.Errorf("query %d returned %d addrs, want 6", i, len(per.ReturnedAddrs))
		}
	}
}

// TestSearchBatchPropagatesFetchFailure: the batched fetch path surfaces
// store failures instead of swallowing them.
func TestSearchBatchPropagatesFetchFailure(t *testing.T) {
	cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), failFetch: true}
	tech, err := NewNoIndOn(testKeys(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tech.SearchBatch([][]relation.Value{{relation.Int(1)}, {relation.Int(2)}}); err == nil {
		t.Fatal("batched fetch failure swallowed")
	}
}

// TestSearchBatchDetectsTamperedTuples: authenticated encryption still
// rejects tampering on the batched path.
func TestSearchBatchDetectsTamperedTuples(t *testing.T) {
	cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), corruptTuple: true}
	tech, err := NewNoIndOn(testKeys(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tech.SearchBatch([][]relation.Value{{relation.Int(1)}}); err == nil {
		t.Fatal("tampered tuples accepted by batched search")
	}
}

// TestFallbackSearchBatchLowestIndexError: the per-query fallback reports
// the lowest-index failure like a sequential loop would, even though the
// queries run concurrently.
func TestFallbackSearchBatchLowestIndexError(t *testing.T) {
	tech := &valueFault{fail: map[int64]bool{1: true, 3: true}}
	queries := make([][]relation.Value, 5)
	for i := range queries {
		queries[i] = []relation.Value{relation.Int(int64(i))}
	}
	_, _, err := fallbackSearchBatch(tech, queries)
	if err == nil || err.Error() != "query 1 failed" {
		t.Fatalf("err = %v, want the lowest-index failure (query 1)", err)
	}
}

// valueFault fails Search for chosen predicate values — deterministic per
// query regardless of worker scheduling. Only the pieces
// fallbackSearchBatch touches are implemented.
type valueFault struct {
	Technique
	fail map[int64]bool
}

func (f *valueFault) Search(values []relation.Value) ([][]byte, *Stats, error) {
	if len(values) == 1 && f.fail[values[0].Int()] {
		return nil, nil, fmt.Errorf("query %d failed", values[0].Int())
	}
	return nil, &Stats{}, nil
}
