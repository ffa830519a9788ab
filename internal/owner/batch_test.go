package owner

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/workload"
)

// valueFaultTechnique fails any Search whose predicate set contains the
// target value — a per-query failure injector for batch error semantics
// (the whole-call injectors live in failure_test.go). The target is set
// after Outsource, once the binning reveals which values are sensitive.
type valueFaultTechnique struct {
	technique.Technique
	target relation.Value
	armed  bool
}

func (f *valueFaultTechnique) Search(values []relation.Value) ([][]byte, *technique.Stats, error) {
	if f.armed {
		for _, v := range values {
			if v.Equal(f.target) {
				return nil, nil, errInjected
			}
		}
	}
	return f.Technique.Search(values)
}

// SearchBatch mirrors the injection on the batched path (otherwise the
// embedded technique's batch implementation would dodge the fault): a
// batch containing the target anywhere fails as a whole, which forces the
// owner onto its per-query fallback and its sequential failure semantics.
func (f *valueFaultTechnique) SearchBatch(queries [][]relation.Value) ([][][]byte, *technique.Stats, error) {
	if f.armed {
		for _, q := range queries {
			for _, v := range q {
				if v.Equal(f.target) {
					return nil, nil, errInjected
				}
			}
		}
	}
	return f.Technique.SearchBatch(queries)
}

// sensitiveValue returns the first dataset value binned as sensitive.
func sensitiveValue(t *testing.T, o *Owner, ds *workload.Dataset) relation.Value {
	t.Helper()
	for _, v := range ds.Values {
		if o.Bins().ContainsSensitive(v) {
			return v
		}
	}
	t.Fatal("dataset has no sensitive values")
	return relation.Value{}
}

func batchOwner(t *testing.T, tech technique.Technique, seed uint64) (*Owner, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 120, DistinctValues: 12, Alpha: 0.5, Seed: int64(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := New(tech, workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(seed)); err != nil {
		t.Fatal(err)
	}
	return o, ds
}

// TestQueryBatchFailingTechnique: a batch whose technique fails on the bin
// holding a target value returns the error of the lowest-index failing
// query and records exactly the views a sequential loop stopping at that
// query would have recorded.
func TestQueryBatchFailingTechnique(t *testing.T) {
	// Twin owners with identical seeds so bins and views line up. The
	// fault arms on the first value binned as sensitive: querying it sends
	// its sensitive bin to the technique, which then fails.
	mk := func() (*Owner, []relation.Value) {
		ds, err := workload.Generate(workload.GenSpec{
			Tuples: 120, DistinctValues: 12, Alpha: 0.5, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		ft := &valueFaultTechnique{Technique: newNoInd(t)}
		o := New(ft, workload.Attr)
		if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(32)); err != nil {
			t.Fatal(err)
		}
		ft.target = sensitiveValue(t, o, ds)
		ft.armed = true
		ws := append(workload.QueryStream(ds, workload.QuerySpec{Queries: 10, Seed: 33}), ft.target)
		return o, ws
	}

	seqOwner, ws := mk()
	var seqErr error
	seqRecorded := 0
	for _, w := range ws {
		if _, _, err := seqOwner.Query(w); err != nil {
			seqErr = err
			break
		}
		seqRecorded++
	}
	if !errors.Is(seqErr, errInjected) {
		t.Fatalf("sequential run did not hit the injected failure: %v", seqErr)
	}

	batchO, _ := mk()
	_, _, batchErr := batchO.QueryBatch(ws, 4)
	if !errors.Is(batchErr, errInjected) {
		t.Fatalf("batch err = %v, want injected", batchErr)
	}
	if got := batchO.Server().ViewCount(); got != seqRecorded {
		t.Fatalf("batch recorded %d views before the failure, sequential recorded %d", got, seqRecorded)
	}
}

// TestQueryAsyncDeliversPerQueryErrors: the stream keeps going past a
// failing query and reports the failure in-band.
func TestQueryAsyncDeliversPerQueryErrors(t *testing.T) {
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 120, DistinctValues: 12, Alpha: 0.5, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft := &valueFaultTechnique{Technique: newNoInd(t)}
	o := New(ft, workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(42)); err != nil {
		t.Fatal(err)
	}
	ft.target = sensitiveValue(t, o, ds)
	ft.armed = true

	ws := append(workload.QueryStream(ds, workload.QuerySpec{Queries: 6, Seed: 43}), ft.target)
	delivered, failures := 0, 0
	for res := range o.QueryAsync(ws) {
		delivered++
		if res.Err != nil {
			failures++
		}
	}
	if delivered != len(ws) {
		t.Fatalf("stream delivered %d results, want %d", delivered, len(ws))
	}
	if failures == 0 {
		t.Fatal("no per-query failure delivered")
	}
}

// countingStore wraps the encrypted store and counts cloud read
// operations — the end-to-end evidence that the batched query path shares
// its work: one column pull and one fetch round trip per batch, however
// many queries it carries.
type countingStore struct {
	*storage.EncryptedStore
	attrPulls   atomic.Int64
	fetches     atomic.Int64 // single-query Fetch round trips
	batchRounds atomic.Int64 // batched fetch round trips
}

// AttrColumnSince serves every column pull, the uncached full one (from
// the zero version) included.
func (c *countingStore) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	c.attrPulls.Add(1)
	return c.EncryptedStore.AttrColumnSince(v, have)
}

func (c *countingStore) Fetch(addrs []int) ([]storage.EncRow, error) {
	c.fetches.Add(1)
	return c.EncryptedStore.Fetch(addrs)
}

func (c *countingStore) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	c.batchRounds.Add(1)
	return c.EncryptedStore.FetchBatch(addrBatches)
}

// TestQueryBatchSharesColumnPull: a QueryBatch of q selections over NoInd
// pulls the encrypted attribute column from the store exactly once and
// fetches all matches in one batched round trip, where the sequential loop
// pays one pull and one fetch per query.
func TestQueryBatchSharesColumnPull(t *testing.T) {
	cs := &countingStore{EncryptedStore: storage.NewEncryptedStore()}
	tech, err := technique.NewNoIndOn(crypto.DeriveKeys([]byte("count")), cs)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 120, DistinctValues: 12, Alpha: 0.5, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := New(tech, workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(62)); err != nil {
		t.Fatal(err)
	}
	ws := workload.QueryStream(ds, workload.QuerySpec{Queries: 8, Seed: 63})

	cs.attrPulls.Store(0)
	cs.fetches.Store(0)
	cs.batchRounds.Store(0)
	if _, _, err := o.QueryBatch(ws, 4); err != nil {
		t.Fatal(err)
	}
	if got := cs.attrPulls.Load(); got != 1 {
		t.Errorf("batch of %d pulled the attribute column %d times, want 1", len(ws), got)
	}
	if got := cs.batchRounds.Load(); got != 1 {
		t.Errorf("batch of %d used %d batched fetch round trips, want 1", len(ws), got)
	}
	if got := cs.fetches.Load(); got != 0 {
		t.Errorf("batch of %d fell back to %d per-query fetches, want 0", len(ws), got)
	}

	cs.attrPulls.Store(0)
	for _, w := range ws {
		if _, _, err := o.Query(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := cs.attrPulls.Load(); got != int64(len(ws)) {
		t.Errorf("sequential loop pulled the column %d times, want %d (one per query)", got, len(ws))
	}
}

// TestQueryBatchPerQueryStats: on the batched path every query still gets
// its own stats — result counts match and the per-query Enc slice carries
// the query's access pattern.
func TestQueryBatchPerQueryStats(t *testing.T) {
	o, ds := batchOwner(t, newNoInd(t), 71)
	ws := workload.QueryStream(ds, workload.QuerySpec{Queries: 6, Seed: 72})
	out, stats, err := o.QueryBatch(ws, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if stats[i] == nil {
			t.Fatalf("stats[%d] is nil", i)
		}
		if stats[i].Result != len(out[i]) {
			t.Errorf("stats[%d].Result = %d, want %d", i, stats[i].Result, len(out[i]))
		}
		// Every sensitive-side retrieval is volume-padded, so a query that
		// touched the encrypted store must report its access pattern.
		if ret, ok := o.Bins().Retrieve(ws[i]); ok && len(ret.SensValues) > 0 &&
			len(stats[i].Enc.ReturnedAddrs) == 0 {
			t.Errorf("stats[%d].Enc has no returned addresses for a sensitive retrieval", i)
		}
	}
}

// TestQueryBatchWorkerNormalization: degenerate worker counts behave like
// sensible ones.
func TestQueryBatchWorkerNormalization(t *testing.T) {
	o, ds := batchOwner(t, newNoInd(t), 51)
	ws := workload.QueryStream(ds, workload.QuerySpec{Queries: 5, Seed: 52})
	var prev [][]relation.Tuple
	for _, workers := range []int{-3, 0, 1, 64} {
		out, stats, err := o.QueryBatch(ws, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(ws) || len(stats) != len(ws) {
			t.Fatalf("workers=%d: %d results / %d stats", workers, len(out), len(stats))
		}
		if prev != nil {
			for i := range out {
				if !reflect.DeepEqual(relation.IDs(out[i]), relation.IDs(prev[i])) {
					t.Fatalf("workers=%d: query %d differs from previous worker count", workers, i)
				}
			}
		}
		prev = out
	}
}
