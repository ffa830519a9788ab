// Rangejoin: exercises the full-version extensions — range selections
// rewritten into searches of their covering bins, dynamic inserts with
// fake-tuple rebalancing, and an owner-side equi-join of two QB-partitioned
// relations.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func newClient(name string, seed uint64) (*repro.Client, *repro.Relation, error) {
	schema := repro.MustSchema(name,
		repro.Column{Name: "OrderID", Kind: repro.KindInt},
		repro.Column{Name: "Amount", Kind: repro.KindInt},
	)
	rel := repro.NewRelation(schema)
	for i := int64(0); i < 40; i++ {
		rel.MustInsert(repro.Int(i), repro.Int(i*100))
	}
	c, err := repro.NewClient(repro.Config{
		MasterKey: []byte("rangejoin key " + name),
		Attr:      "OrderID",
		Seed:      &seed,
	})
	if err != nil {
		return nil, nil, err
	}
	// Every third order is classified.
	err = c.Outsource(rel.Clone(), func(t repro.Tuple) bool {
		return t.Values[0].Int()%3 == 0
	})
	return c, rel, err
}

func run() error {
	orders, _, err := newClient("Orders", 3)
	if err != nil {
		return err
	}

	// Range selection: rewritten into the covering bins on both sides.
	got, err := orders.QueryRange(repro.Int(10), repro.Int(15))
	if err != nil {
		return err
	}
	fmt.Printf("range [10,15]: %d orders\n", len(got))
	for _, t := range got {
		fmt.Printf("  order %v amount %v\n", t.Values[0], t.Values[1])
	}

	// Insert a brand-new sensitive order: the owner re-bins its metadata
	// and rebalances the fake padding; the cloud sees only appends.
	before := orders.Binning()
	err = orders.Insert(repro.Tuple{ID: 1000, Values: []repro.Value{repro.Int(999), repro.Int(42)}}, true)
	if err != nil {
		return err
	}
	after := orders.Binning()
	fmt.Printf("\ninsert of new sensitive order 999: bins %dx%d -> %dx%d, fakes %d -> %d\n",
		before.SensitiveBins, before.NonSensitiveBins,
		after.SensitiveBins, after.NonSensitiveBins,
		before.FakeTuples, after.FakeTuples)
	ts, err := orders.Query(repro.Int(999))
	if err != nil {
		return err
	}
	fmt.Printf("query for the new order returns %d tuple(s)\n", len(ts))

	// Equi-join with a shipments relation on OrderID.
	shipments, _, err := newClient("Shipments", 5)
	if err != nil {
		return err
	}
	pairs, err := orders.Join(shipments)
	if err != nil {
		return err
	}
	fmt.Printf("\norders ⋈ shipments on OrderID: %d pairs (both sides queried bin-wise)\n", len(pairs))
	return nil
}
