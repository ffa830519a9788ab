package technique

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// cachedPair is a cached and an uncached NoInd over one store: whatever the
// cached one answers, the uncached one is the reference for.
type cachedPair struct {
	cached, plain *NoInd
}

func newCachedPair(t testing.TB, store EncStore, c *Cache) cachedPair {
	t.Helper()
	cached, err := NewNoIndOn(testKeys(), store)
	if err != nil {
		t.Fatal(err)
	}
	cached.SetCache(c)
	if cached.cache == nil {
		t.Fatal("SetCache did not engage on a versioned store")
	}
	plain, err := NewNoIndOn(testKeys(), store)
	if err != nil {
		t.Fatal(err)
	}
	return cachedPair{cached: cached, plain: plain}
}

// step runs one random operation on both techniques and requires identical
// payloads, payload order and returned addresses (transfer counters
// legitimately differ: the cache exists to change them). Values are drawn
// from [0, domain); domain..domain+2 never occur in the data.
func (p cachedPair) step(t *testing.T, rng *rand.Rand, domain int, serial *int) {
	t.Helper()
	pred := func(n int) []relation.Value {
		vs := make([]relation.Value, n)
		for i := range vs {
			vs[i] = relation.Int(int64(rng.Intn(domain + 3)))
		}
		return vs
	}
	switch op := rng.Intn(10); {
	case op < 3: // append a few rows
		rows := make([]Row, 1+rng.Intn(4))
		for i := range rows {
			*serial++
			rows[i] = Row{Payload: []byte(fmt.Sprintf("row#%d", *serial)), Attr: relation.Int(int64(rng.Intn(domain)))}
		}
		if _, err := p.cached.Outsource(rows); err != nil {
			t.Fatal(err)
		}
	case op < 7: // one search: a bin-sized predicate, a many-value one (with repeats), or an empty one
		values := pred([]int{0, 1, 4, 4, 3 * domain}[rng.Intn(5)])
		got, gst, err := p.cached.Search(values)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, err := p.plain.Search(values)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%v): cached payloads %q, uncached %q", values, got, want)
		}
		if !reflect.DeepEqual(gst.ReturnedAddrs, wst.ReturnedAddrs) {
			t.Fatalf("Search(%v): cached addrs %v, uncached %v", values, gst.ReturnedAddrs, wst.ReturnedAddrs)
		}
	default: // a batch in which some queries share one predicate slice, as bin retrievals do
		bins := [][]relation.Value{pred(3), pred(5), nil, pred(2 * domain)}
		queries := make([][]relation.Value, 1+rng.Intn(8))
		for i := range queries {
			queries[i] = bins[rng.Intn(len(bins))]
		}
		got, gst, err := p.cached.SearchBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, err := p.plain.SearchBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchBatch(%v): cached payloads %q, uncached %q", queries, got, want)
		}
		if !reflect.DeepEqual(gst.ReturnedAddrs, wst.ReturnedAddrs) {
			t.Fatalf("SearchBatch(%v): cached aggregate addrs %v, uncached %v", queries, gst.ReturnedAddrs, wst.ReturnedAddrs)
		}
		for i := range queries {
			if !reflect.DeepEqual(gst.PerQuery[i].ReturnedAddrs, wst.PerQuery[i].ReturnedAddrs) {
				t.Fatalf("SearchBatch(%v) query %d: cached addrs %v, uncached %v",
					queries, i, gst.PerQuery[i].ReturnedAddrs, wst.PerQuery[i].ReturnedAddrs)
			}
		}
	}
	if st := p.cached.cache.Stats(); st.Bytes > st.MaxBytes {
		t.Fatalf("cache holds %d bytes over a %d budget", st.Bytes, st.MaxBytes)
	}
}

// TestNoIndCachedMatchesUncached is the equivalence property of the cached
// read path — revalidate, extend column and index by the delta, match
// through the index, fill payload holes — under every eviction stage the
// byte budget can force.
func TestNoIndCachedMatchesUncached(t *testing.T) {
	const domain, steps = 12, 400
	// A memo entry (DetIndex's segment) big enough that the "memo" budget
	// cannot hold it beside the column.
	bigMemo := make([]int, 4096)
	for _, tc := range []struct {
		name   string
		budget int
		// after inspects the cache once the run is over (no goroutine is
		// left to race with).
		after func(t *testing.T, c *Cache)
	}{
		{name: "everything fits", budget: 0, after: func(t *testing.T, c *Cache) {
			if c.col == nil || len(c.pay) == 0 || c.memoBytes == 0 {
				t.Fatalf("default budget evicted: column %v, %d payloads, memo %d B", c.col != nil, len(c.pay), c.memoBytes)
			}
			if s := c.Stats(); s.Hits == 0 || s.BytesSaved == 0 {
				t.Fatalf("no hit recorded: %+v", s)
			}
		}},
		{name: "payload FIFO only", budget: 56 << 10, after: func(t *testing.T, c *Cache) {
			if c.col == nil || c.memoBytes == 0 {
				t.Fatalf("evicted past the payloads: column %v, memo %d B", c.col != nil, c.memoBytes)
			}
			if len(c.pay) >= len(c.col.addrs) {
				t.Fatalf("no payload was evicted: %d cached for %d cells", len(c.pay), len(c.col.addrs))
			}
		}},
		{name: "memo", budget: 40 << 10, after: func(t *testing.T, c *Cache) {
			if c.col == nil || c.memoBytes != 0 {
				t.Fatalf("want memo flushed and column kept: column %v, memo %d B", c.col != nil, c.memoBytes)
			}
		}},
		{name: "column and index dropped every search", budget: 2 << 10, after: func(t *testing.T, c *Cache) {
			if c.col != nil {
				t.Fatalf("a %d-cell column survived a 2 KiB budget", len(c.col.addrs))
			}
			if s := c.Stats(); s.Misses < steps/4 {
				t.Fatalf("only %d misses: the column was not re-pulled every search", s.Misses)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(tc.budget)
			c.memoPut(storage.EncVersion{Epoch: 1}, "token", bigMemo)
			p := newCachedPair(t, storage.NewEncryptedStore(), c)
			rng, serial := rand.New(rand.NewSource(23)), 0
			for i := 0; i < steps; i++ {
				p.step(t, rng, domain, &serial)
			}
			tc.after(t, c)
		})
	}
}

// TestNoIndCachedAcrossEpochs shares one Cache between NoInds over two
// stores — the shape of a cloud restored from a snapshot under a fresh
// epoch. Each switch must rebuild column and index for the store asked and
// flush the other epoch's payloads rather than serve them.
func TestNoIndCachedAcrossEpochs(t *testing.T) {
	const domain = 6
	c := NewCache(0)
	a := newCachedPair(t, storage.NewEncryptedStore(), c)
	b := newCachedPair(t, storage.NewEncryptedStore(), c)
	rng, serial := rand.New(rand.NewSource(5)), 1_000_000
	for i := 0; i < 200; i++ {
		p := a
		if rng.Intn(4) == 0 { // short stays on b, so a's column is rebuilt often
			p = b
		}
		p.step(t, rng, domain, &serial)
	}
	if s := c.Stats(); s.Misses < 10 || s.Hits < 10 {
		t.Fatalf("want both epoch switches (misses) and revalidations (hits): %+v", s)
	}
}

// TestColMatchCutsAtValidatedLength pins colMatch against a plain scan of
// the first n cells, for every n up to the indexed length: a reader whose
// revalidation vouched for n cells gets no position >= n, however far a
// concurrent reader has extended the column since. Small predicates take
// the sorting arm, the full domain takes the mark-and-sweep arm.
func TestColMatchCutsAtValidatedLength(t *testing.T) {
	const cells, domain = 300, 40
	rng := rand.New(rand.NewSource(7))
	rows := make([]storage.EncRow, cells)
	vals := make([]relation.Value, cells)
	for i := range rows {
		rows[i] = storage.EncRow{Addr: 9000 - 3*i, AttrCT: []byte("ct")} // column order is not address order
		vals[i] = relation.Int(int64(rng.Intn(domain)))
	}
	c := NewCache(0)
	ver := storage.EncVersion{Epoch: 9, N: cells}
	col := c.colExtend(nil, ver, 0, rows[:100], vals[:100])
	// A second extender that raced over cells 50..300 appends only 100..300.
	if c.colExtend(col, ver, 50, rows[50:], vals[50:]) != col || len(col.addrs) != cells {
		t.Fatalf("column has %d cells after an overlapping extension, want %d", len(col.addrs), cells)
	}
	all := make([]relation.Value, domain)
	for i := range all {
		all[i] = relation.Int(int64(i))
	}
	for _, values := range [][]relation.Value{
		{relation.Int(3)},
		{relation.Int(3), relation.Int(17), relation.Int(3), relation.Int(domain + 1)},
		all,
		nil,
	} {
		want := make(map[relation.Value]bool)
		for _, v := range values {
			want[v] = true
		}
		for n := 0; n <= cells; n++ {
			var scan []int
			for i := 0; i < n; i++ {
				if want[vals[i]] {
					scan = append(scan, rows[i].Addr)
				}
			}
			if got := c.colMatch(col, n, values); !reflect.DeepEqual(got, scan) {
				t.Fatalf("colMatch(n=%d, %v) = %v, scan of the first %d cells = %v", n, values, got, n, scan)
			}
		}
	}
}

// TestNoIndCachedTamperedTailFailsAndPublishesNothing: a tail cell that
// does not authenticate fails the search that pulled it, and neither the
// cells before it in the same delta nor anything after reach the published
// column and index.
func TestNoIndCachedTamperedTailFailsAndPublishesNothing(t *testing.T) {
	store := storage.NewEncryptedStore()
	p := newCachedPair(t, store, NewCache(0))
	if _, err := p.cached.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	pred := []relation.Value{relation.Int(4)}
	if _, _, err := p.cached.Search(pred); err != nil {
		t.Fatal(err)
	}
	_, _, before, _ := p.cached.cache.colSnapshot()
	if before != len(testRows()) {
		t.Fatalf("warm column has %d cells, want %d", before, len(testRows()))
	}
	if _, err := p.cached.Outsource([]Row{{Payload: []byte("good"), Attr: relation.Int(4)}}); err != nil {
		t.Fatal(err)
	}
	store.Add([]byte("tuple"), []byte("not an authenticated ciphertext"), nil)
	for _, search := range []func() error{
		func() error { _, _, err := p.cached.Search(pred); return err },
		func() error { _, _, err := p.cached.SearchBatch([][]relation.Value{pred}); return err },
	} {
		if err := search(); err == nil {
			t.Fatal("search over a tampered tail cell succeeded")
		}
		if _, _, cells, _ := p.cached.cache.colSnapshot(); cells != before {
			t.Fatalf("failed search left a %d-cell column published, want the %d it had validated before", cells, before)
		}
	}
}

// TestNoIndCachedFetchFailures drives fetchPayloads' error paths through
// the cached search: a failing fetch, a tampered tuple, and a store that
// answers with fewer rows than addresses.
func TestNoIndCachedFetchFailures(t *testing.T) {
	for name, cs := range map[string]*corruptStore{
		"fetch error":    {failFetch: true},
		"tampered tuple": {corruptTuple: true},
		"short fetch":    {shortFetch: true},
	} {
		t.Run(name, func(t *testing.T) {
			cs.EncryptedStore = storage.NewEncryptedStore()
			p := newCachedPair(t, cs, NewCache(0))
			if _, err := p.cached.Outsource(testRows()); err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.cached.Search([]relation.Value{relation.Int(4)}); err == nil {
				t.Fatal("cached search succeeded")
			}
			if _, _, err := p.cached.SearchBatch([][]relation.Value{{relation.Int(4)}}); err == nil {
				t.Fatal("cached batch search succeeded")
			}
		})
	}
}

// TestNoIndCachedReadYourWritesUnderConcurrentSearches races cached
// searches — every one of which may extend the shared column and index —
// against a writer. A search must return every row acknowledged before it
// began: the cut at its own validated length may hide rows a faster reader
// appended, never rows its own revalidation covered.
func TestNoIndCachedReadYourWritesUnderConcurrentSearches(t *testing.T) {
	n, err := NewNoInd(testKeys())
	if err != nil {
		t.Fatal(err)
	}
	n.SetCache(NewCache(0))
	pred := []relation.Value{relation.Int(0), relation.Int(1), relation.Int(2)}
	const writes = 300

	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(batch bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := int(acked.Load())
				var got [][]byte
				var err error
				if batch {
					var outs [][][]byte
					if outs, _, err = n.SearchBatch([][]relation.Value{pred}); err == nil {
						got = outs[0]
					}
				} else {
					got, _, err = n.Search(pred)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) < before {
					t.Errorf("search returned %d payloads, %d writes were acknowledged before it began", len(got), before)
					return
				}
			}
		}(g%2 == 0)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < writes; i++ {
		if _, err := n.Outsource([]Row{{Payload: []byte(fmt.Sprintf("row#%d", i)), Attr: pred[i%len(pred)]}}); err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(i + 1))
		got, _, err := n.Search(pred)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != i+1 {
			t.Fatalf("after write %d: search returned %d payloads, want %d", i, len(got), i+1)
		}
	}
}
