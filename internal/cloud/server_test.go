package cloud

import (
	"testing"

	"repro/internal/relation"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	s := relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindString},
	)
	r := relation.New(s)
	for i := 0; i < 20; i++ {
		r.MustInsert(relation.Int(int64(i%5)), relation.Str("x"))
	}
	srv, err := NewServer(r, "K")
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestNewServerBadAttr(t *testing.T) {
	r := relation.New(relation.MustSchema("T", relation.Column{Name: "K", Kind: relation.KindInt}))
	if _, err := NewServer(r, "missing"); err == nil {
		t.Fatal("missing attribute accepted")
	}
}

func TestSearchPlain(t *testing.T) {
	srv := testServer(t)
	got := srv.SearchPlain([]relation.Value{relation.Int(2), relation.Int(4)})
	if len(got) != 8 {
		t.Fatalf("returned %d tuples, want 8", len(got))
	}
}

func TestInsertPlain(t *testing.T) {
	srv := testServer(t)
	err := srv.InsertPlain(relation.Tuple{ID: 100, Values: []relation.Value{relation.Int(99), relation.Str("y")}})
	if err != nil {
		t.Fatal(err)
	}
	got := srv.SearchPlain([]relation.Value{relation.Int(99)})
	if len(got) != 1 || got[0].ID != 100 {
		t.Fatalf("insert not found: %v", got)
	}
}

func TestRecordAssignsQueryIDs(t *testing.T) {
	srv := testServer(t)
	srv.Record(View{PlainValues: []relation.Value{relation.Int(1)}})
	srv.Record(View{EncPredicates: 2})
	views := srv.Views()
	if len(views) != 2 {
		t.Fatalf("views = %d", len(views))
	}
	if views[0].QueryID != 0 || views[1].QueryID != 1 {
		t.Errorf("query ids = %d, %d", views[0].QueryID, views[1].QueryID)
	}
	srv.ResetViews()
	if len(srv.Views()) != 0 {
		t.Error("reset left views")
	}
	srv.Record(View{})
	if srv.Views()[0].QueryID != 0 {
		t.Error("query ids not reset")
	}
}

func TestPlainExposesRelation(t *testing.T) {
	srv := testServer(t)
	if srv.Plain().Len() != 20 {
		t.Errorf("plain store len = %d", srv.Plain().Len())
	}
	if srv.Plain().Attr() != "K" {
		t.Errorf("attr = %q", srv.Plain().Attr())
	}
}
