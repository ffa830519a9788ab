package repro

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// allTechniques enumerates every Technique value the batch engine must be
// observationally equivalent under.
var allTechniques = []Technique{
	TechNoInd, TechDetIndex, TechArx, TechShamir,
	TechSimOpaque, TechSimJana, TechDPFPIR,
}

// datasetClient builds a client over a small random dataset with a seeded
// bin permutation (so twin runs on the same client are reproducible).
func datasetClient(t *testing.T, tech Technique, genSeed int64) (*Client, *workload.Dataset) {
	t.Helper()
	return datasetClientOn(t, tech, genSeed, nil)
}

// datasetClientOn is datasetClient over the given transport (nil: an
// in-process cloud), with the owner-side cache off.
func datasetClientOn(t *testing.T, tech Technique, genSeed int64, transport wire.Transport) (*Client, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 160, DistinctValues: 16, Alpha: 0.4,
		AssocFraction: 0.5, Seed: genSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := newClientOn(Config{
		MasterKey:    []byte("batch test master key"),
		Attr:         workload.Attr,
		Technique:    tech,
		Seed:         seed(uint64(genSeed) + 7),
		DisableCache: true,
	}, transport, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
		t.Fatal(err)
	}
	return c, ds
}

// batchWorkload draws a query stream, then appends every value of the
// domain, so that each drawn value repeats and several selections fall in
// one bin, and values absent from the relation, so that empty
// adversarial views are exercised too.
func batchWorkload(ds *workload.Dataset, n int, qSeed int64) []Value {
	ws := workload.QueryStream(ds, workload.QuerySpec{Queries: n, Seed: qSeed})
	ws = append(ws, ds.Values...)
	for i := 0; i < 3; i++ {
		ws = append(ws, Int(int64(100_000+i)))
	}
	return ws
}

// viewKey canonicalises a view for comparison, ignoring the QueryID
// sequence number.
func viewKey(v AdversarialView) string {
	return fmt.Sprintf("pv=%v ep=%d pr=%v ea=%v",
		v.PlainValues, v.EncPredicates, v.PlainResults, v.EncResultAddrs)
}

// TestQueryBatchMatchesSequential is the equivalence property test: for
// random relations and workloads, QueryBatch returns the same per-query
// answers and appends the same adversarial views, in the same order, as a
// sequential loop over Query — across every Technique value.
func TestQueryBatchMatchesSequential(t *testing.T) {
	for _, tech := range allTechniques {
		for _, genSeed := range []int64{3, 17} {
			t.Run(fmt.Sprintf("%v/seed=%d", tech, genSeed), func(t *testing.T) {
				c, ds := datasetClient(t, tech, genSeed)
				ws := batchWorkload(ds, 12, genSeed+100)

				seq := make([][]Tuple, len(ws))
				for i, w := range ws {
					got, err := c.Query(w)
					if err != nil {
						t.Fatalf("sequential Query(%v): %v", w, err)
					}
					seq[i] = got
				}
				seqViews := c.AdversarialViews()
				if len(seqViews) != len(ws) {
					t.Fatalf("sequential run recorded %d views, want %d", len(seqViews), len(ws))
				}

				batch, err := c.QueryBatch(ws)
				if err != nil {
					t.Fatalf("QueryBatch: %v", err)
				}
				views := c.AdversarialViews()
				if len(views) != 2*len(ws) {
					t.Fatalf("after batch: %d views, want %d", len(views), 2*len(ws))
				}
				batchViews := views[len(ws):]

				for i := range ws {
					if !reflect.DeepEqual(relation.IDs(seq[i]), relation.IDs(batch[i])) {
						t.Errorf("query %d (%v): batch IDs %v != sequential %v",
							i, ws[i], relation.IDs(batch[i]), relation.IDs(seq[i]))
					}
					if viewKey(batchViews[i]) != viewKey(seqViews[i]) {
						t.Errorf("query %d (%v): batch view %s != sequential view %s",
							i, ws[i], viewKey(batchViews[i]), viewKey(seqViews[i]))
					}
					if batchViews[i].QueryID != len(ws)+i {
						t.Errorf("batch view %d has QueryID %d, want %d", i, batchViews[i].QueryID, len(ws)+i)
					}
				}
			})
		}
	}
}

// TestQueryAsyncMatchesSequential checks the streaming variant: every
// query's answer matches the sequential one, and the multiset of recorded
// views equals the sequential multiset (order follows completion).
func TestQueryAsyncMatchesSequential(t *testing.T) {
	c, ds := datasetClient(t, TechNoInd, 5)
	ws := batchWorkload(ds, 16, 55)

	seq := make([][]Tuple, len(ws))
	for i, w := range ws {
		got, err := c.Query(w)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = got
	}
	seqViews := c.AdversarialViews()

	n := 0
	for res := range c.QueryAsync(ws) {
		if res.Err != nil {
			t.Fatalf("query %d (%v): %v", res.Index, res.Query, res.Err)
		}
		if !reflect.DeepEqual(relation.IDs(seq[res.Index]), relation.IDs(res.Tuples)) {
			t.Errorf("query %d (%v): async IDs %v != sequential %v",
				res.Index, res.Query, relation.IDs(res.Tuples), relation.IDs(seq[res.Index]))
		}
		if res.Stats == nil {
			t.Errorf("query %d: nil stats", res.Index)
		}
		n++
	}
	if n != len(ws) {
		t.Fatalf("stream delivered %d results, want %d", n, len(ws))
	}

	views := c.AdversarialViews()
	if len(views) != 2*len(ws) {
		t.Fatalf("after async batch: %d views, want %d", len(views), 2*len(ws))
	}
	want := make(map[string]int)
	for _, v := range seqViews {
		want[viewKey(v)]++
	}
	got := make(map[string]int)
	for _, v := range views[len(ws):] {
		got[viewKey(v)]++
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("async view multiset differs from sequential:\n got %v\nwant %v", got, want)
	}
}

// TestQueryBatchEmpty covers the empty-batch error path: no results, no
// error, no views recorded.
func TestQueryBatchEmpty(t *testing.T) {
	c := employeeClient(t, TechNoInd)
	before := len(c.AdversarialViews())
	for _, ws := range [][]Value{nil, {}} {
		out, err := c.QueryBatch(ws)
		if err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		if len(out) != 0 {
			t.Fatalf("empty batch returned %d results", len(out))
		}
	}
	for range c.QueryAsync(nil) {
		t.Fatal("empty async batch delivered a result")
	}
	if got := len(c.AdversarialViews()); got != before {
		t.Fatalf("empty batches recorded %d views", got-before)
	}
}

// TestQueryBatchBeforeOutsource covers the not-outsourced error path.
func TestQueryBatchBeforeOutsource(t *testing.T) {
	c, err := NewClient(Config{MasterKey: []byte("k"), Attr: "EId"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryBatch([]Value{Str("E101")}); err == nil {
		t.Fatal("batch before Outsource succeeded")
	}
	res := <-c.QueryAsync([]Value{Str("E101")})
	if res.Err == nil {
		t.Fatal("async batch before Outsource succeeded")
	}
}

// TestQueryBatchMidInsertInterleaving runs a batch while Insert executes
// concurrently: the batch must finish without error (each query sees a
// consistent pre- or post-insert state) and the inserted tuples must be
// visible afterwards.
func TestQueryBatchMidInsertInterleaving(t *testing.T) {
	c, ds := datasetClient(t, TechNoInd, 9)
	ws := batchWorkload(ds, 32, 91)
	schema := ds.Relation.Schema

	var wg sync.WaitGroup
	insErr := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			vals := make([]Value, schema.Arity())
			for j := range vals {
				vals[j] = Int(0)
			}
			vals[0] = Int(int64(i % 4)) // existing values: no re-binning needed
			if err := c.Insert(Tuple{ID: 50_000 + i, Values: vals}, i%2 == 0); err != nil {
				insErr <- err
				return
			}
		}
	}()

	for i := 0; i < 4; i++ {
		if _, err := c.QueryBatch(ws); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	wg.Wait()
	close(insErr)
	for err := range insErr {
		t.Fatalf("insert: %v", err)
	}

	got, err := c.Query(Int(0))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, tp := range got {
		if tp.ID >= 50_000 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("inserted tuples invisible after concurrent batch")
	}
}

// TestQueryBatchWithStats sanity-checks the stats variant.
func TestQueryBatchWithStats(t *testing.T) {
	c, ds := datasetClient(t, TechNoInd, 11)
	ws := batchWorkload(ds, 8, 111)
	out, stats, err := c.QueryBatchWithStats(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(ws) || len(stats) != len(ws) {
		t.Fatalf("got %d results / %d stats, want %d", len(out), len(stats), len(ws))
	}
	for i, st := range stats {
		if st == nil {
			t.Fatalf("stats[%d] is nil", i)
		}
		if st.Result != len(out[i]) {
			t.Errorf("stats[%d].Result = %d, want %d", i, st.Result, len(out[i]))
		}
	}
}

// TestQueryBatchStatsMatchSequential: each query of a batch, with repeated
// values and several values per bin, gets an answer slice of its own and
// reports the stats that QueryWithStats reports for its value alone:
// Result, PlainTuples, FakeDiscarded, BinDiscarded, Enc.ReturnedAddrs and
// Enc.TuplesTransferred. This holds for every technique in process and
// for the store-backed ones over net.Pipe. The owner cache is off there,
// because with it on a query's transfers depend on what ran before it.
// One difference is by design: a batch counts work shared across its
// queries once, at the technique level and in no query. So a query of
// NoInd or ShamirScan, whose column pull or share scan is shared,
// transfers the same number of tuples fewer than alone.
func TestQueryBatchStatsMatchSequential(t *testing.T) {
	sharedScan := map[Technique]bool{TechNoInd: true, TechShamir: true}
	type arm struct {
		name string
		tech Technique
		pipe bool
	}
	var arms []arm
	for _, tech := range allTechniques {
		arms = append(arms, arm{tech.String(), tech, false})
	}
	for _, tech := range []Technique{TechNoInd, TechDetIndex, TechArx} {
		arms = append(arms, arm{tech.String() + "/pipe", tech, true})
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			var transport wire.Transport
			if a.pipe {
				cend, send := net.Pipe()
				go wire.NewCloud().ServeConn(send)
				transport = wire.NewClient(cend)
			}
			c, ds := datasetClientOn(t, a.tech, 13, transport)
			ws := batchWorkload(ds, 12, 113)
			out, stats, err := c.QueryBatchWithStats(ws)
			if err != nil {
				t.Fatal(err)
			}
			// A repeated value's answer is its own copy.
			backing := make(map[*Tuple]int)
			for i, ts := range out {
				if len(ts) == 0 {
					continue
				}
				if j, ok := backing[&ts[0]]; ok {
					t.Fatalf("queries %d and %d (%v) share one answer slice", j, i, ws[i])
				}
				backing[&ts[0]] = i
			}
			bins := make(map[int]map[Value]bool)
			shared := -1
			for i, w := range ws {
				_, want, err := c.QueryWithStats(w)
				if err != nil {
					t.Fatal(err)
				}
				got := stats[i]
				if got.Result != want.Result || got.PlainTuples != want.PlainTuples ||
					got.FakeDiscarded != want.FakeDiscarded || got.BinDiscarded != want.BinDiscarded {
					t.Errorf("query %d (%v): batch result %d, plain %d, fakes %d, co-residents %d; alone %d, %d, %d, %d",
						i, w, got.Result, got.PlainTuples, got.FakeDiscarded, got.BinDiscarded,
						want.Result, want.PlainTuples, want.FakeDiscarded, want.BinDiscarded)
				}
				if !slices.Equal(got.Enc.ReturnedAddrs, want.Enc.ReturnedAddrs) {
					t.Errorf("query %d (%v): batch addrs %v, alone %v", i, w, got.Enc.ReturnedAddrs, want.Enc.ReturnedAddrs)
				}
				ret, ok := c.owner.Bins().Retrieve(w)
				if !ok || len(ret.SensValues) == 0 {
					continue
				}
				if bins[ret.SensBin] == nil {
					bins[ret.SensBin] = make(map[Value]bool)
				}
				bins[ret.SensBin][w] = true
				diff := want.Enc.TuplesTransferred - got.Enc.TuplesTransferred
				switch {
				case !sharedScan[a.tech] && diff != 0:
					t.Errorf("query %d (%v): batch transferred %d tuples, alone %d",
						i, w, got.Enc.TuplesTransferred, want.Enc.TuplesTransferred)
				case sharedScan[a.tech] && (diff <= 0 || shared >= 0 && diff != shared):
					t.Errorf("query %d (%v): batch transferred %d tuples, alone %d; the shared scan is %d",
						i, w, got.Enc.TuplesTransferred, want.Enc.TuplesTransferred, shared)
				}
				shared = diff
			}
			coBinned := false
			for _, vals := range bins {
				coBinned = coBinned || len(vals) > 1
			}
			if !coBinned {
				t.Fatalf("vacuous: no sensitive bin holds two of the %d selections", len(ws))
			}
		})
	}
}
