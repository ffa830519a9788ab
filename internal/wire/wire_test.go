package wire

import (
	"errors"
	mrand "math/rand/v2"
	"net"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/technique"
	"repro/internal/workload"
)

// startCloud spins up a cloud on a loopback listener and returns a
// connected client.
func startCloud(t *testing.T) *Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCloud()
	go func() { _ = cl.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestPing(t *testing.T) {
	c := startCloud(t).WithStore(DefaultStore)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestPlainBackendOverWire(t *testing.T) {
	c := startCloud(t).WithStore(DefaultStore)
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindString},
	))
	for i := 0; i < 30; i++ {
		rel.MustInsert(relation.Int(int64(i%6)), relation.Str("x"))
	}
	if err := c.Load(rel, "K"); err != nil {
		t.Fatal(err)
	}
	got := c.Search([]relation.Value{relation.Int(2)})
	if len(got) != 5 {
		t.Fatalf("Search = %d tuples, want 5", len(got))
	}
	// The cloud serves no range search: the pin answers nothing and records
	// why, so a stray caller sees an error, never an empty result.
	if got := c.SearchRange(relation.Int(1), relation.Int(2)); got != nil ||
		c.LogicalErrCount() != 1 || !errors.Is(c.LogicalErr(), ErrNoRangeSearch) {
		t.Fatalf("SearchRange = %v, logical error %v (%d)", got, c.LogicalErr(), c.LogicalErrCount())
	}
	if err := c.Insert(relation.Tuple{ID: 99, Values: []relation.Value{relation.Int(42), relation.Str("y")}}); err != nil {
		t.Fatal(err)
	}
	got = c.Search([]relation.Value{relation.Int(42)})
	if len(got) != 1 || got[0].ID != 99 {
		t.Fatalf("remote insert not found: %v", got)
	}
	if c.Err() != nil {
		t.Fatalf("sticky error: %v", c.Err())
	}
}

func TestPlainErrorsOverWire(t *testing.T) {
	c := startCloud(t).WithStore(DefaultStore)
	// Search before Load is a server-side logical error: recorded per-op,
	// but the connection stays healthy.
	if got := c.Search([]relation.Value{relation.Int(1)}); got != nil {
		t.Fatalf("search before load returned %v", got)
	}
	if c.LogicalErr() == nil {
		t.Fatal("logical error not surfaced via LogicalErr()")
	}
	if c.Err() != nil {
		t.Fatalf("logical error poisoned the client: %v", c.Err())
	}
	// The client recovers: a Load and a Search succeed on the same conn.
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	rel.MustInsert(relation.Int(7))
	if err := c.Load(rel, "K"); err != nil {
		t.Fatalf("Load after logical error: %v", err)
	}
	if got := c.Search([]relation.Value{relation.Int(7)}); len(got) != 1 {
		t.Fatalf("Search after recovery = %v", got)
	}
}

func TestEncStoreOverWire(t *testing.T) {
	c := startCloud(t).WithStore(DefaultStore)
	a0 := c.Add([]byte("ct0"), []byte("a0"), nil)
	a1 := c.Add([]byte("ct1"), []byte("a1"), []byte("tok"))
	if a0 != 0 || a1 != 1 {
		t.Fatalf("addresses %d, %d", a0, a1)
	}
	// Reads force a flush.
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d", n)
	}
	col := c.AttrColumn()
	if len(col) != 2 || string(col[1].AttrCT) != "a1" {
		t.Fatalf("AttrColumn = %+v", col)
	}
	rows, err := c.Fetch([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].TupleCT) != "ct1" {
		t.Fatalf("Fetch = %+v", rows)
	}
	if got := c.LookupToken([]byte("tok")); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("LookupToken = %v", got)
	}
	if got := c.Rows(); len(got) != 2 {
		t.Fatalf("Rows = %d", len(got))
	}
	if _, err := c.Fetch([]int{9}); err == nil {
		t.Fatal("out-of-range fetch accepted")
	}
	if c.Err() != nil {
		t.Fatalf("sticky error after recoverable protocol error: %v", c.Err())
	}
}

// TestOwnerEndToEndOverWire runs the complete QB pipeline against a cloud
// process reached over TCP loopback: remote clear-text store and remote
// encrypted store.
func TestOwnerEndToEndOverWire(t *testing.T) {
	client := startCloud(t).WithStore(DefaultStore)

	ks := crypto.DeriveKeys([]byte("wire e2e"))
	tech, err := technique.NewNoIndOn(ks, client) // encrypted store lives remote
	if err != nil {
		t.Fatal(err)
	}
	o := owner.New(tech, "EId")
	o.SetCloudBackend(client) // clear-text store lives remote too

	emp := workload.Employee()
	opts := core.Options{Rand: mrand.New(mrand.NewPCG(42, 43))}
	if err := o.Outsource(emp.Clone(), workload.EmployeeSensitive, opts); err != nil {
		t.Fatal(err)
	}
	for _, eid := range []string{"E101", "E259", "E199", "E152"} {
		got, _, err := o.Query(relation.Str(eid))
		if err != nil {
			t.Fatalf("Query(%s): %v", eid, err)
		}
		want, err := emp.Select("EId", relation.Str(eid))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
			t.Errorf("Query(%s) = %v, want %v", eid, relation.IDs(got), relation.IDs(want))
		}
	}
	// Insert over the wire, then query it back.
	nt := relation.Tuple{ID: 100, Values: []relation.Value{
		relation.Str("E777"), relation.Str("New"), relation.Str("Person"),
		relation.Int(777), relation.Int(9), relation.Str("Design"),
	}}
	if err := o.Insert(nt, false); err != nil {
		t.Fatal(err)
	}
	got, _, err := o.Query(relation.Str("E777"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 100 {
		t.Fatalf("remote insert lookup = %v", got)
	}
	if client.Err() != nil {
		t.Fatalf("sticky transport error: %v", client.Err())
	}
}

// TestTwoClientsShareOneCloud checks concurrent connections against the
// same cloud state.
func TestTwoClientsShareOneCloud(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCloud()
	go func() { _ = cl.Serve(lis) }()
	defer lis.Close()

	c1, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	c1.WithStore(DefaultStore).Add([]byte("x"), []byte("y"), nil)
	if err := c1.WithStore(DefaultStore).Flush(); err != nil {
		t.Fatal(err)
	}
	if n := c2.WithStore(DefaultStore).Len(); n != 1 {
		t.Fatalf("second client sees %d rows, want 1", n)
	}
}

func TestClientCloseIsClean(t *testing.T) {
	client := startCloud(t).WithStore(DefaultStore)
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Ops on a closed client fail fast...
	if err := client.Ping(); err == nil {
		t.Fatal("ping on closed client succeeded")
	}
	if client.Add([]byte("x"), nil, nil) != -1 {
		t.Fatal("Add on closed client handed out an address")
	}
	// ...but an explicit Close is a clean shutdown, not a transport
	// failure (see TestTransportErrorPoisonsAndReleases for the sticky
	// path).
	if err := client.Err(); err != nil {
		t.Fatalf("clean close surfaced as transport error: %v", err)
	}
	// Void methods on a closed client are not silent: the use-after-close
	// is recorded for LogicalErr.
	if got := client.Search([]relation.Value{relation.Int(1)}); got != nil {
		t.Fatalf("search on closed client = %v", got)
	}
	if client.LogicalErr() == nil {
		t.Fatal("use-after-close not recorded by LogicalErr()")
	}
}
