package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestConcurrentClientStress hammers one client from many goroutines mixing
// batches, streaming batches, single queries, range queries, inserts and
// adversary-view reads. It exists for `go test -race`: the assertions are
// deliberately weak (no error, plausible shapes) — the detector is the
// real oracle.
func TestConcurrentClientStress(t *testing.T) {
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 240, DistinctValues: 24, Alpha: 0.4,
		AssocFraction: 0.5, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(Config{
		MasterKey: []byte("stress test master key"),
		Attr:      workload.Attr,
		Seed:      seed(78),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
		t.Fatal(err)
	}
	ws := workload.QueryStream(ds, workload.QuerySpec{Queries: 16, Seed: 79})
	schema := ds.Relation.Schema

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Batch queriers, at 1, 2 and 3 workers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := c.owner.QueryBatch(ws, 1+g); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	// Streaming querier.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for res := range c.QueryAsync(ws) {
				if res.Err != nil {
					fail(res.Err)
					return
				}
			}
		}
	}()
	// Single-query and range querier.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if _, err := c.Query(ws[i%len(ws)]); err != nil {
				fail(err)
				return
			}
			if _, err := c.QueryRange(Int(2), Int(9)); err != nil {
				fail(err)
				return
			}
		}
	}()
	// Inserters (sensitive and non-sensitive, existing and new values).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				vals := make([]Value, schema.Arity())
				for j := range vals {
					vals[j] = Int(0)
				}
				vals[0] = Int(int64((g*6 + i) % 30)) // some values are new: re-binning path
				if err := c.Insert(Tuple{ID: 60_000 + g*1000 + i, Values: vals}, g == 0); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	// Metadata readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = c.AdversarialViews()
			_ = c.Binning()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTwoNamespaceCloudStress drives one shared qbcloud from two tenants
// in different namespaces — batched queries, single queries and inserts
// interleaved from several goroutines each — plus a remote vertical
// client on a third/fourth namespace pair. It exists for `go test -race`
// and for the isolation property: every answer must come from the
// tenant's own relation even while the other tenant mutates its
// namespace through the same server.
func TestTwoNamespaceCloudStress(t *testing.T) {
	addr := startRemoteCloud(t)

	type tenant struct {
		c  *Client
		ds *workload.Dataset
		ws []Value
	}
	mk := func(store string, genSeed uint64) *tenant {
		ds, err := workload.Generate(workload.GenSpec{
			Tuples: 160, DistinctValues: 16, Alpha: 0.4,
			AssocFraction: 0.5, Seed: int64(genSeed),
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(Config{
			MasterKey: []byte("stress tenant " + store),
			Attr:      workload.Attr,
			Seed:      seed(genSeed),
			CloudAddr: addr,
			Store:     store,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
			t.Fatal(err)
		}
		return &tenant{
			c: c, ds: ds,
			ws: workload.QueryStream(ds, workload.QuerySpec{Queries: 8, Seed: int64(genSeed) + 1}),
		}
	}
	ta, tb := mk("stress-a", 101), mk("stress-b", 202)

	vc, err := NewVerticalClient(Config{
		MasterKey: []byte("stress vertical"), Attr: "EId", Seed: seed(303),
		CloudAddr: addr, Store: "stress-vert",
	}, []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vc.Close() })
	emp := workload.Employee()
	if err := vc.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for _, tn := range []*tenant{ta, tb} {
		// Batch queriers, at 1 and 2 workers.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(tn *tenant, g int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					got, err := withRemoteCheck(tn.c, func() ([][]Tuple, error) {
						out, _, err := tn.c.owner.QueryBatch(tn.ws, 1+g)
						return out, err
					})
					if err != nil {
						fail(err)
						return
					}
					for qi, ts := range got {
						want, _ := tn.ds.Relation.Select(workload.Attr, tn.ws[qi])
						if len(ts) < len(want) {
							fail(fmt.Errorf("tenant batch query %v returned %d tuples, want >= %d",
								tn.ws[qi], len(ts), len(want)))
							return
						}
					}
				}
			}(tn, g)
		}
		// Inserter: new and existing values, exercising re-binning and the
		// namespace's pinned write path.
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			schema := tn.ds.Relation.Schema
			for i := 0; i < 6; i++ {
				vals := make([]Value, schema.Arity())
				for j := range vals {
					vals[j] = Int(0)
				}
				vals[0] = Int(int64(40 + i%8))
				if err := tn.c.Insert(Tuple{ID: 70_000 + i, Values: vals}, i%2 == 0); err != nil {
					fail(err)
					return
				}
			}
		}(tn)
	}
	// Vertical querier on its own namespace pair.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			for _, eid := range []string{"E101", "E259", "E199"} {
				got, err := vc.Query(Str(eid))
				if err != nil {
					fail(err)
					return
				}
				if len(got) == 0 {
					fail(fmt.Errorf("vertical Query(%s) lost its rows mid-stress", eid))
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
