package technique

import (
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// callCountingStore counts every call into the store contract a technique
// reaches the cloud through (EncStore).
// Over the wire each call is one round trip: no call is short-circuited
// for an empty request.
type callCountingStore struct {
	*storage.EncryptedStore
	calls atomic.Int64
}

func (c *callCountingStore) Add(tupleCT, attrCT, token []byte) int {
	c.calls.Add(1)
	return c.EncryptedStore.Add(tupleCT, attrCT, token)
}

func (c *callCountingStore) Len() int {
	c.calls.Add(1)
	return c.EncryptedStore.Len()
}

func (c *callCountingStore) AttrColumn() []storage.EncRow {
	c.calls.Add(1)
	return c.EncryptedStore.AttrColumn()
}

func (c *callCountingStore) Fetch(addrs []int) ([]storage.EncRow, error) {
	c.calls.Add(1)
	return c.EncryptedStore.Fetch(addrs)
}

func (c *callCountingStore) LookupToken(tok []byte) []int {
	c.calls.Add(1)
	return c.EncryptedStore.LookupToken(tok)
}

func (c *callCountingStore) Rows() []storage.EncRow {
	c.calls.Add(1)
	return c.EncryptedStore.Rows()
}

func (c *callCountingStore) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	c.calls.Add(1)
	return c.EncryptedStore.FetchBatch(addrBatches)
}

func (c *callCountingStore) EncVersion() (storage.EncVersion, error) {
	c.calls.Add(1)
	return c.EncryptedStore.EncVersion()
}

func (c *callCountingStore) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	c.calls.Add(1)
	return c.EncryptedStore.AttrColumnSince(v, have)
}

func (c *callCountingStore) RowsSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	c.calls.Add(1)
	return c.EncryptedStore.RowsSince(v, have)
}

// onStore builds each technique that runs over an EncStore, cached and
// uncached (Arx keeps no owner-side cache).
func onStore() map[string]func(EncStore) (Technique, error) {
	cached := func(c interface{ SetCache(*Cache) }) { c.SetCache(NewCache(0)) }
	return map[string]func(EncStore) (Technique, error){
		"noind": func(s EncStore) (Technique, error) { return NewNoIndOn(testKeys(), s) },
		"noind/cached": func(s EncStore) (Technique, error) {
			n, err := NewNoIndOn(testKeys(), s)
			if err == nil {
				cached(n)
			}
			return n, err
		},
		"det": func(s EncStore) (Technique, error) { return NewDetIndexOn(testKeys(), s) },
		"det/cached": func(s EncStore) (Technique, error) {
			d, err := NewDetIndexOn(testKeys(), s)
			if err == nil {
				cached(d)
			}
			return d, err
		},
		"arx": func(s EncStore) (Technique, error) { return NewArxOn(testKeys(), s) },
	}
}

// TestRoundsCountStoreCalls is the accounting property behind every
// round-trip metric: a search's top-level Stats.Rounds equals the store
// calls it made, for each technique over an EncStore, cached or not,
// through Search and SearchBatch, on empty, single-value, several-value
// and absent-value predicate lists. Each list runs twice, so that cached
// techniques are checked on a miss and on a hit.
func TestRoundsCountStoreCalls(t *testing.T) {
	for name, build := range onStore() {
		t.Run(name, func(t *testing.T) {
			cs := &callCountingStore{EncryptedStore: storage.NewEncryptedStore()}
			tech, err := build(cs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tech.Outsource(testRows()); err != nil {
				t.Fatal(err)
			}
			preds := [][]relation.Value{
				{},
				{relation.Int(4)},
				{relation.Int(1), relation.Int(5), relation.Int(9)},
				{relation.Int(999)},
			}
			check := func(form string, q any, search func() (*Stats, error)) {
				t.Helper()
				cs.calls.Store(0)
				st, err := search()
				if err != nil {
					t.Fatalf("%s(%v): %v", form, q, err)
				}
				if calls := int(cs.calls.Load()); st.Rounds != calls {
					t.Errorf("%s(%v): Rounds = %d, store calls = %d", form, q, st.Rounds, calls)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for _, q := range preds {
					check("Search", q, func() (*Stats, error) {
						_, st, err := tech.Search(q)
						return st, err
					})
					check("SearchBatch", q, func() (*Stats, error) {
						_, st, err := tech.SearchBatch([][]relation.Value{q})
						return st, err
					})
				}
				check("SearchBatch", preds, func() (*Stats, error) {
					_, st, err := tech.SearchBatch(preds)
					return st, err
				})
			}
		})
	}
}
