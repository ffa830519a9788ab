package storage

import (
	"reflect"
	"testing"

	"repro/internal/relation"
)

func genRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	s := relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindString},
	)
	r := relation.New(s)
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Int(int64(i%10)), relation.Str("p"))
	}
	return r
}

func TestPlainStoreSearch(t *testing.T) {
	ps, err := NewPlainStore(genRelation(t, 50), "K")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 50 || ps.DistinctValues() != 10 {
		t.Fatalf("Len=%d Distinct=%d", ps.Len(), ps.DistinctValues())
	}
	got := ps.Search([]relation.Value{relation.Int(3), relation.Int(7)})
	if len(got) != 10 {
		t.Fatalf("Search returned %d tuples", len(got))
	}
	for _, tp := range got {
		k := tp.Values[0].Int()
		if k != 3 && k != 7 {
			t.Errorf("stray tuple with K=%d", k)
		}
	}
	if got := ps.Search([]relation.Value{relation.Int(99)}); len(got) != 0 {
		t.Errorf("absent value returned %d tuples", len(got))
	}
	// The index keys by value, kind included: Int 1 and Str "1" are two
	// keys, and a value's tuples come back in position order.
	s := relation.MustSchema("T", relation.Column{Name: "K", Kind: relation.KindString})
	r := relation.New(s)
	for _, k := range []string{"1", "2", "1"} {
		r.MustInsert(relation.Str(k))
	}
	ps, err = NewPlainStore(r, "K")
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Search([]relation.Value{relation.Str("1")}); len(got) != 2 || got[0].ID != r.Tuples[0].ID || got[1].ID != r.Tuples[2].ID {
		t.Errorf("Search(Str 1) = %v", got)
	}
	if got := ps.Search([]relation.Value{relation.Int(1)}); got != nil {
		t.Errorf("Search(Int 1) over string keys = %v", got)
	}
	if ps.DistinctValues() != 2 {
		t.Errorf("DistinctValues = %d", ps.DistinctValues())
	}
}

func TestPlainStoreInsert(t *testing.T) {
	ps, err := NewPlainStore(genRelation(t, 10), "K")
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Insert(relation.Tuple{ID: 100, Values: []relation.Value{relation.Int(42), relation.Str("q")}}); err != nil {
		t.Fatal(err)
	}
	got := ps.Search([]relation.Value{relation.Int(42)})
	if len(got) != 1 || got[0].ID != 100 {
		t.Fatalf("insert not searchable: %v", got)
	}
	if n, err := ps.InsertIfLen(relation.Tuple{ID: 101, Values: []relation.Value{relation.Int(42), relation.Str("r")}}, 11); err != nil || n != 12 {
		t.Fatalf("InsertIfLen = %d, %v", n, err)
	}
	if got := ps.Search([]relation.Value{relation.Int(42)}); len(got) != 2 || got[1].ID != 101 {
		t.Fatalf("conditional insert not searchable: %v", got)
	}
}

func TestPlainStoreBadColumn(t *testing.T) {
	if _, err := NewPlainStore(genRelation(t, 1), "missing"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestEncryptedStore(t *testing.T) {
	es := NewEncryptedStore()
	a0 := es.Add([]byte("ct0"), []byte("attr0"), nil)
	a1 := es.Add([]byte("ct1"), []byte("attr1"), []byte("tokA"))
	a2 := es.Add([]byte("ct2"), []byte("attr2"), []byte("tokA"))
	if a0 != 0 || a1 != 1 || a2 != 2 || es.Len() != 3 {
		t.Fatalf("addresses %d,%d,%d len %d", a0, a1, a2, es.Len())
	}
	col := es.AttrColumn()
	if len(col) != 3 || string(col[2].AttrCT) != "attr2" || col[2].TupleCT != nil {
		t.Fatalf("AttrColumn = %+v", col)
	}
	rows, err := es.Fetch([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(rows[0].TupleCT) != "ct2" || string(rows[1].TupleCT) != "ct0" {
		t.Fatalf("Fetch = %+v", rows)
	}
	if _, err := es.Fetch([]int{5}); err == nil {
		t.Error("out-of-range fetch succeeded")
	}
	if got := es.LookupToken([]byte("tokA")); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("LookupToken = %v", got)
	}
	if es.LookupToken([]byte("none")) != nil {
		t.Error("absent token returned addresses")
	}
}
