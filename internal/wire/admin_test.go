package wire

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// startCloudOn spins the given cloud up on a loopback listener and returns
// a connected client.
func startCloudOn(t *testing.T, cl *Cloud) *Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = cl.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// loadTenant writes a small relation plus encrypted rows into a namespace
// through a tokened view, claiming it for master.
func loadTenant(t *testing.T, c *Client, store string, master []byte) *StoreClient {
	t.Helper()
	v := c.WithStore(store)
	v.SetAdminToken(OwnerToken(master, store))
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	for i := 0; i < 8; i++ {
		rel.MustInsert(relation.Int(int64(i)))
	}
	if err := v.Load(rel, "K"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v.Add([]byte{byte(i)}, nil, []byte("tok"))
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestOwnerTokenDerivation: tokens are deterministic per (key, store),
// distinct across stores and keys, and "" canonicalises to DefaultStore.
func TestOwnerTokenDerivation(t *testing.T) {
	a := OwnerToken([]byte("master"), "s1")
	if !bytes.Equal(a, OwnerToken([]byte("master"), "s1")) {
		t.Fatal("token not deterministic")
	}
	if bytes.Equal(a, OwnerToken([]byte("master"), "s2")) {
		t.Fatal("token does not depend on the store name")
	}
	if bytes.Equal(a, OwnerToken([]byte("other"), "s1")) {
		t.Fatal("token does not depend on the master key")
	}
	if !bytes.Equal(OwnerToken([]byte("master"), ""), OwnerToken([]byte("master"), DefaultStore)) {
		t.Fatal(`"" and DefaultStore derive different tokens`)
	}
}

// TestTokenMatches: the one token check accepts exactly the token whose
// hash is stored, and nothing when either side is empty.
func TestTokenMatches(t *testing.T) {
	tok := OwnerToken([]byte("master"), "ns")
	stored := hashToken(tok)
	for _, tc := range []struct {
		name              string
		stored, presented []byte
		want              bool
	}{
		{"empty stored", nil, tok, false},
		{"empty presented", stored, nil, false},
		{"both empty", nil, nil, false},
		{"wrong token", stored, OwnerToken([]byte("other"), "ns"), false},
		{"right token", stored, tok, true},
		{"right token truncated", stored, tok[:len(tok)-1], false},
	} {
		if got := tokenMatches(tc.stored, tc.presented); got != tc.want {
			t.Errorf("%s: tokenMatches = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAdminOpsRequireOwnerToken is the acceptance property, both
// directions: drop/stats succeed with the namespace's owner token
// and are refused without it (wrong key, no key, unclaimed namespace,
// unknown namespace).
func TestAdminOpsRequireOwnerToken(t *testing.T) {
	cloud := NewCloud()
	c := startCloudOn(t, cloud)
	master := []byte("owner master key")
	loadTenant(t, c, "tenant", master)
	good := OwnerToken(master, "tenant")
	bad := OwnerToken([]byte("attacker key"), "tenant")

	// Wrong token: every per-namespace op refused.
	if _, err := c.AdminStats("tenant", bad); err == nil || !strings.Contains(err.Error(), "token mismatch") {
		t.Fatalf("stats with wrong token: %v", err)
	}
	if err := c.AdminDrop("tenant", bad); err == nil || !strings.Contains(err.Error(), "token mismatch") {
		t.Fatalf("drop with wrong token: %v", err)
	}
	// No token at all, or the right one cut short by a byte.
	if err := c.AdminDrop("tenant", nil); err == nil || !strings.Contains(err.Error(), "token mismatch") {
		t.Fatalf("drop with no token: %v", err)
	}
	if _, err := c.AdminStats("tenant", good[:len(good)-1]); err == nil || !strings.Contains(err.Error(), "token mismatch") {
		t.Fatalf("stats with a truncated token: %v", err)
	}
	// The data survived every refusal.
	if n := c.WithStore("tenant").Len(); n != 5 {
		t.Fatalf("enc rows after refused admin ops = %d, want 5", n)
	}

	// Right token: stats, then drop.
	s, err := c.AdminStats("tenant", good)
	if err != nil {
		t.Fatal(err)
	}
	if s.PlainTuples != 8 || s.EncRows != 5 || s.Ops == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if err := c.AdminDrop("tenant", good); err != nil {
		t.Fatal(err)
	}
	if n := c.WithStore("tenant").Len(); n != 0 {
		t.Fatalf("enc rows after drop = %d, want 0", n)
	}
	// The Len probe reads the namespace without creating it.
	if names, err := c.AdminList(); err != nil || len(names) != 0 {
		t.Fatalf("stores after drop and a Len probe = %v, %v; want none", names, err)
	}
	// Another writer's untokened write re-creates the namespace
	// unclaimed, so the old owner no longer holds it either.
	v := startCloudOn(t, cloud).WithStore("tenant")
	if a := v.Add([]byte("ct"), nil, nil); a != 0 {
		t.Fatalf("untokened write after drop: address %d, %v", a, v.LogicalErr())
	}
	if err := v.Flush(); err != nil {
		t.Fatalf("untokened write after drop: %v", err)
	}
	if err := c.AdminDrop("tenant", good); err == nil || !strings.Contains(err.Error(), "no registered owner") {
		t.Fatalf("drop of unclaimed recreated namespace: %v", err)
	}
	// Unknown namespace.
	if err := c.AdminDrop("never-existed", good); err == nil || !strings.Contains(err.Error(), "unknown store") {
		t.Fatalf("drop of unknown namespace: %v", err)
	}
}

// TestDropResetsTheDroppingView: a drop made over a connection resets that
// connection's view of the namespace, so the view's next write lands at
// address 0 of the empty store instead of past the destroyed rows, and
// its unflushed uploads go with the namespace.
func TestDropResetsTheDroppingView(t *testing.T) {
	c := startCloudOn(t, NewCloud())
	master := []byte("drop master")
	v := loadTenant(t, c, "tenant", master)
	v.Add([]byte("unflushed"), nil, nil)
	if err := c.AdminDrop("tenant", OwnerToken(master, "tenant")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if a := v.Add([]byte{byte(i)}, nil, []byte("tok")); a != i {
			t.Fatalf("Add %d after drop: address %d, want %d (%v)", i, a, i, v.LogicalErr())
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatalf("flush after drop: %v", err)
	}
	if n, err := v.LenErr(); err != nil || n != 3 {
		t.Fatalf("Len after drop and 3 adds = %d, %v; want 3", n, err)
	}
	if got := v.LookupToken([]byte("tok")); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("token postings after drop = %v, want [0 1 2]", got)
	}
}

// TestAdminFirstWriteClaims: the first tokened write wins; a second
// writer with a different key cannot take over, and an untokened write
// claims nothing.
func TestAdminFirstWriteClaims(t *testing.T) {
	c := startCloudOn(t, NewCloud())
	loadTenant(t, c, "claimed", []byte("first owner"))

	// A second writer with a different key is refused outright: once a
	// namespace is claimed, data-plane writes are gated by the owner token
	// just like the control plane, and a mismatched token cannot steal the
	// claim either.
	v2 := c.WithStore("claimed")
	v2.SetAdminToken(OwnerToken([]byte("second owner"), "claimed"))
	err := v2.Insert(relation.Tuple{ID: 99, Values: []relation.Value{relation.Int(42)}})
	if err == nil || !strings.Contains(err.Error(), "owner token mismatch") {
		t.Fatalf("second writer's insert = %v, want owner-token refusal", err)
	}
	first := OwnerToken([]byte("first owner"), "claimed")
	v2.SetAdminToken(first[:len(first)-1])
	err = v2.Insert(relation.Tuple{ID: 99, Values: []relation.Value{relation.Int(42)}})
	if err == nil || !strings.Contains(err.Error(), "owner token mismatch") {
		t.Fatalf("insert with a truncated owner token = %v, want owner-token refusal", err)
	}
	if err := c.AdminDrop("claimed", OwnerToken([]byte("second owner"), "claimed")); err == nil {
		t.Fatal("second writer stole the namespace")
	}
	if _, err := c.AdminStats("claimed", OwnerToken([]byte("first owner"), "claimed")); err != nil {
		t.Fatalf("first owner lost the namespace: %v", err)
	}

	// Untokened writes leave the namespace unclaimed.
	v3 := c.WithStore("unclaimed")
	v3.Add([]byte("ct"), nil, nil)
	if err := v3.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdminStats("unclaimed", OwnerToken([]byte("anyone"), "unclaimed")); err == nil ||
		!strings.Contains(err.Error(), "no registered owner") {
		t.Fatalf("stats on unclaimed namespace: %v", err)
	}
}

// TestAdminList: discovery needs no token and sees every namespace.
func TestAdminList(t *testing.T) {
	c := startCloudOn(t, NewCloud())
	loadTenant(t, c, "b-tenant", []byte("kb"))
	loadTenant(t, c, "a-tenant", []byte("ka"))
	names, err := c.AdminList()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"a-tenant", "b-tenant"}) {
		t.Fatalf("AdminList = %v", names)
	}
}

// TestOwnerHashSurvivesSnapshot: a restored cloud still knows its owners —
// the token hash rides the snapshot — so admin rights survive a restart,
// and still exclude everyone else.
func TestOwnerHashSurvivesSnapshot(t *testing.T) {
	cl := NewCloud()
	c := startCloudOn(t, cl)
	master := []byte("snapshot owner")
	loadTenant(t, c, "tenant", master)

	var buf bytes.Buffer
	if err := cl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cl2 := NewCloud()
	if err := cl2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := startCloudOn(t, cl2)
	if err := c2.AdminDrop("tenant", OwnerToken([]byte("not the owner"), "tenant")); err == nil {
		t.Fatal("restored cloud accepted a foreign token")
	}
	if _, err := c2.AdminStats("tenant", OwnerToken(master, "tenant")); err != nil {
		t.Fatalf("restored cloud refused the real owner: %v", err)
	}
}

// TestDropIsolatesSiblings: dropping one namespace leaves its siblings
// fully intact.
func TestDropIsolatesSiblings(t *testing.T) {
	c := startCloudOn(t, NewCloud())
	loadTenant(t, c, "keep", []byte("keep key"))
	loadTenant(t, c, "kill", []byte("kill key"))
	if err := c.AdminDrop("kill", OwnerToken([]byte("kill key"), "kill")); err != nil {
		t.Fatal(err)
	}
	v := c.WithStore("keep")
	if n := v.Len(); n != 5 {
		t.Fatalf("sibling enc rows = %d, want 5", n)
	}
	if got := v.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("sibling plain search = %v", got)
	}
}

// TestWriteAdmissionGate is the tenant-isolation property for every
// write-path op: once tenant A's first tokened write claims a namespace,
// tenant B can append or load nothing into it — not with a missing token,
// not with a token derived from a different key — while A's own writes
// keep working and an unclaimed namespace stays open to tokenless writers.
func TestWriteAdmissionGate(t *testing.T) {
	cl := NewCloud()
	cA := startCloudOn(t, cl)
	a := loadTenant(t, cA, "claimed", []byte("key A")) // claims the namespace

	mkRel := func(vals ...int64) *relation.Relation {
		rel := relation.New(relation.MustSchema("T",
			relation.Column{Name: "K", Kind: relation.KindInt},
		))
		for _, v := range vals {
			rel.MustInsert(relation.Int(v))
		}
		return rel
	}

	// Every write-path op (opEncAddBatch via the buffered flush, opPlainInsert,
	// opPlainLoad), each driven through its own fresh connection so one
	// refusal's client-side state cannot mask another, for both a missing
	// token and a wrong-key token.
	attacks := []struct {
		name string
		run  func(v *StoreClient) error
	}{
		{"enc-add", func(v *StoreClient) error {
			v.Add([]byte("intruder"), nil, nil)
			return v.Flush()
		}},
		{"plain-insert", func(v *StoreClient) error {
			return v.Insert(relation.Tuple{ID: 999, Values: []relation.Value{relation.Int(77)}})
		}},
		{"plain-load", func(v *StoreClient) error {
			return v.Load(mkRel(666), "K")
		}},
	}
	tokens := []struct {
		name string
		tok  []byte
	}{
		{"no-token", nil},
		{"wrong-key", OwnerToken([]byte("key B"), "claimed")},
	}
	for _, tk := range tokens {
		for _, atk := range attacks {
			t.Run(tk.name+"/"+atk.name, func(t *testing.T) {
				v := startCloudOn(t, cl).WithStore("claimed")
				v.SetAdminToken(tk.tok)
				err := atk.run(v)
				if err == nil || !strings.Contains(err.Error(), "refused") {
					t.Fatalf("%s with %s = %v, want write refusal", atk.name, tk.name, err)
				}
			})
		}
	}

	// Nothing leaked into tenant A's namespace, and A keeps writing.
	if n := a.Len(); n != 5 {
		t.Fatalf("enc rows after refused writes = %d, want 5", n)
	}
	if got := a.Search([]relation.Value{relation.Int(77)}); len(got) != 0 {
		t.Fatalf("intruder tuple visible: %v", got)
	}
	if addr := a.Add([]byte("more"), nil, nil); addr != 5 {
		t.Fatalf("owner Add = %d", addr)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("owner flush after refusals: %v", err)
	}
	if err := a.Insert(relation.Tuple{ID: 100, Values: []relation.Value{relation.Int(1)}}); err != nil {
		t.Fatalf("owner insert after refusals: %v", err)
	}

	// An unclaimed namespace still accepts tokenless writes (the open
	// single-tenant mode), and a tokenless writer cannot be locked out
	// retroactively by its own earlier writes.
	open := startCloudOn(t, cl).WithStore("open")
	if err := open.Load(mkRel(1, 2, 3), "K"); err != nil {
		t.Fatalf("tokenless load into unclaimed namespace: %v", err)
	}
	open.Add([]byte("ct"), nil, nil)
	if err := open.Flush(); err != nil {
		t.Fatalf("tokenless flush into unclaimed namespace: %v", err)
	}
}
