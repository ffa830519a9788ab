package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
)

// startCloudListener runs a cloud on a loopback listener and returns the
// cloud and its address.
func startCloudListener(t *testing.T) (*Cloud, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCloud()
	go func() { _ = cl.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	return cl, lis.Addr().String()
}

// sendFrame writes one request frame straight onto a raw connection.
func sendFrame(t *testing.T, conn net.Conn, req *request) {
	t.Helper()
	if err := finishFrame(conn, appendRequest(beginFrame(nil), req)); err != nil {
		t.Fatal(err)
	}
}

// recvFrame reads one response frame off a raw connection.
func recvFrame(conn net.Conn) (*response, error) {
	var scratch []byte
	body, err := readFrame(conn, &scratch)
	if err != nil {
		return nil, err
	}
	resp, _, err := decodeResponse(body, nil)
	return resp, err
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestHelloRejectsLegacyClient: a client that opens with any op but
// opHello gets an explicit version-mismatch refusal — its op not
// executed — and the connection closed. A gob-era (≤ v6) client, whose
// hello is not a frame at all, gets the connection closed with nothing
// executed either.
func TestHelloRejectsLegacyClient(t *testing.T) {
	cl, addr := startCloudListener(t)
	conn := dialRaw(t, addr)
	sendFrame(t, conn, &request{ID: 7, Op: opEncVersion, Store: "skipped-hello"})
	resp, err := recvFrame(conn)
	if err != nil {
		t.Fatalf("no explicit refusal frame: %v", err)
	}
	if resp.ID != 7 {
		t.Fatalf("refusal answers ID %d, want 7", resp.ID)
	}
	if !strings.Contains(resp.Err, "protocol version mismatch") {
		t.Fatalf("refusal error = %q, want a version-mismatch message", resp.Err)
	}
	// The server hangs up after refusing: the next read observes EOF,
	// not another frame.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := recvFrame(conn); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept serving a pre-handshake connection: %v", err)
	}

	legacy := dialRaw(t, addr)
	enc := gob.NewEncoder(legacy)
	_ = enc.Encode(&request{ID: 1, Op: opHello, Version: 6})
	_ = enc.Encode(&request{ID: 2, Op: opEncAddBatch, Store: "gob-era", Have: -1,
		Batch: []EncUpload{{TupleCT: []byte("ct")}}})
	legacy.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := legacy.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("gob hello: read %d bytes, err %v; want the connection closed", n, err)
	}
	if names := cl.StoreNames(); len(names) != 0 {
		t.Fatalf("refused connections executed ops: stores %v", names)
	}
}

// TestUnconditionalMutationRefused: every client mutation is conditional.
// A raw opEncAddBatch or opPlainInsert carrying Have -1 — the
// unconditional form protocol v6 and v7 still applied — fails the length
// CAS as a stale write against a populated namespace, and neither
// partition moves.
func TestUnconditionalMutationRefused(t *testing.T) {
	cl, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	master := []byte("unconditional master")
	loadTenant(t, c, "tenant", master) // 8 tuples, 5 encrypted rows
	tok := OwnerToken(master, "tenant")

	conn := dialRaw(t, addr)
	sendFrame(t, conn, &request{ID: 1, Op: opHello, Version: ProtocolVersion})
	if resp, err := recvFrame(conn); err != nil || resp.Err != "" {
		t.Fatalf("hello: %+v, %v", resp, err)
	}
	for i, req := range []*request{
		{Op: opEncAddBatch, Batch: []EncUpload{{TupleCT: []byte("ct")}}},
		{Op: opPlainInsert, Tuple: relation.Tuple{ID: 99, Values: []relation.Value{relation.Int(99)}}},
	} {
		req.ID, req.Store, req.AdminToken, req.Have = uint64(2+i), "tenant", tok, -1
		sendFrame(t, conn, req)
		resp, err := recvFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Err, staleWriteMark) {
			t.Errorf("op %d with Have -1 answered %+v, want a stale-write refusal", req.Op, resp)
		}
	}
	if st := cl.Stats()["tenant"]; st.EncRows != 5 || st.PlainTuples != 8 {
		t.Fatalf("refused writes moved the namespace: %d rows, %d tuples; want 5, 8", st.EncRows, st.PlainTuples)
	}
}

// TestHelloRejectsVersionSkew: an opHello carrying the wrong version is
// refused explicitly with both versions named.
func TestHelloRejectsVersionSkew(t *testing.T) {
	_, addr := startCloudListener(t)
	conn := dialRaw(t, addr)
	sendFrame(t, conn, &request{ID: 1, Op: opHello, Version: ProtocolVersion + 5})
	resp, err := recvFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "version mismatch") || resp.Version != ProtocolVersion ||
		!strings.Contains(resp.Err, fmt.Sprintf("v%d", ProtocolVersion)) ||
		!strings.Contains(resp.Err, fmt.Sprintf("v%d", ProtocolVersion+5)) {
		t.Fatalf("skewed hello answered %+v", resp)
	}
}

// gobPeer plays a gob-era (≤ v6) server on the far end of a pipe: plain
// gob both ways, the hello answered with version (0 answers every op
// "unknown op", as v1 did), and the connection closed on the first
// message it cannot decode, as those servers' ServeConn did.
func gobPeer(conn net.Conn, version int) {
	defer conn.Close()
	dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := response{ID: req.ID}
		if req.Op == opHello && version > 0 {
			resp.Version = version
		} else {
			resp.Err = "wire: unknown op"
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// rejectsGobPeer: a client facing a gob-era server fails its first call
// within 2 s, is poisoned, and lets no later op proceed. The v7 client
// cannot name the peer's version — the peer cannot parse a frame, so the
// failure is the closed connection, not a version message.
func rejectsGobPeer(t *testing.T, version int) {
	cend, send := net.Pipe()
	c := NewClient(cend)
	t.Cleanup(func() { c.Close(); send.Close() })
	go gobPeer(send, version)

	errc := make(chan error, 1)
	go func() { errc <- c.Ping() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("ping against a gob-era server succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping against a gob-era server hung")
	}
	if c.Err() == nil {
		t.Fatal("client not poisoned by a gob-era server")
	}
	if _, err := c.WithStore(DefaultStore).Fetch([]int{0}); err == nil {
		t.Fatal("fetch proceeded against a gob-era server")
	}
}

// TestClientRejectsLegacyServer: against a v1 server (no handshake, gob).
func TestClientRejectsLegacyServer(t *testing.T) { rejectsGobPeer(t, 0) }

// TestClientRejectsV2Server: against a v2 server, which speaks raw
// gob and answers the hello with its own version.
func TestClientRejectsV2Server(t *testing.T) { rejectsGobPeer(t, 2) }

// TestPingCreatesNoStore: store-less ops (the handshake, Ping) must not
// materialise a phantom "default" namespace in the registry, the stats
// or the next snapshot.
func TestPingCreatesNoStore(t *testing.T) {
	cl, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if names := cl.StoreNames(); len(names) != 0 {
		t.Fatalf("ping materialised namespaces %v", names)
	}
	if stats := cl.Stats(); len(stats) != 0 {
		t.Fatalf("ping materialised stats %v", stats)
	}
}

// TestStoreNamespacesOverWire: one connection, two namespaces — plain
// relations, encrypted rows, tokens and address spaces must all be fully
// isolated, and the default-store methods must alias WithStore(DefaultStore).
func TestStoreNamespacesOverWire(t *testing.T) {
	cl, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hr := c.WithStore("hr")
	fin := c.WithStore("finance")

	// Independent address spaces from row zero.
	if a := hr.Add([]byte("hr-0"), []byte("a"), []byte("tok")); a != 0 {
		t.Fatalf("hr first addr = %d", a)
	}
	if a := fin.Add([]byte("fin-0"), []byte("b"), []byte("tok")); a != 0 {
		t.Fatalf("finance first addr = %d", a)
	}
	if a := hr.Add([]byte("hr-1"), nil, nil); a != 1 {
		t.Fatalf("hr second addr = %d", a)
	}
	if err := hr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fin.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, m := hr.Len(), fin.Len(); n != 2 || m != 1 {
		t.Fatalf("Len = %d/%d, want 2/1", n, m)
	}
	rows, err := hr.Fetch([]int{0})
	if err != nil || string(rows[0].TupleCT) != "hr-0" {
		t.Fatalf("hr fetch = %v, %v", rows, err)
	}
	rows, err = fin.Fetch([]int{0})
	if err != nil || string(rows[0].TupleCT) != "fin-0" {
		t.Fatalf("finance fetch = %v, %v", rows, err)
	}
	// Same token bytes, disjoint indexes.
	if got := hr.LookupToken([]byte("tok")); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("hr token = %v", got)
	}
	if got := fin.LookupToken([]byte("tok")); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("finance token = %v", got)
	}

	// Plain relations are per-namespace too.
	mkRel := func(vals ...int64) *relation.Relation {
		rel := relation.New(relation.MustSchema("T",
			relation.Column{Name: "K", Kind: relation.KindInt},
		))
		for _, v := range vals {
			rel.MustInsert(relation.Int(v))
		}
		return rel
	}
	if err := hr.Load(mkRel(1, 2), "K"); err != nil {
		t.Fatal(err)
	}
	if got := hr.Search([]relation.Value{relation.Int(1)}); len(got) != 1 {
		t.Fatalf("hr search = %v", got)
	}
	// finance has no relation loaded: logical error, scoped to finance.
	if got := fin.Search([]relation.Value{relation.Int(1)}); got != nil {
		t.Fatalf("finance search = %v", got)
	}
	if le := fin.LogicalErr(); le == nil || !strings.Contains(le.Error(), "finance") {
		t.Fatalf("LogicalErr = %v, want store-qualified no-relation error", le)
	}

	// The default-store surface is WithStore(DefaultStore).
	if c.WithStore("") != c.WithStore(DefaultStore) {
		t.Fatal("empty name and DefaultStore yield different views")
	}
	if a := c.WithStore(DefaultStore).Add([]byte("def-0"), nil, nil); a != 0 {
		t.Fatalf("default store first addr = %d", a)
	}
	if err := c.WithStore(DefaultStore).Flush(); err != nil {
		t.Fatal(err)
	}

	// Server-side accounting sees all three namespaces.
	names := cl.StoreNames()
	if !reflect.DeepEqual(names, []string{"default", "finance", "hr"}) {
		t.Fatalf("StoreNames = %v", names)
	}
	stats := cl.Stats()
	if stats["hr"].EncRows != 2 || stats["hr"].PlainTuples != 2 || stats["hr"].Ops == 0 {
		t.Fatalf("hr stats = %+v", stats["hr"])
	}
	if stats["finance"].EncRows != 1 || stats["finance"].PlainTuples != 0 {
		t.Fatalf("finance stats = %+v", stats["finance"])
	}
}

// TestLogicalRecordIsPerNamespace: two tenants share one connection; a
// failing op of one must not show up in the other's bracket, or tenant A's
// successful query would be reported as failed with tenant B's error.
func TestLogicalRecordIsPerNamespace(t *testing.T) {
	_, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := c.WithStore("tenant-a"), c.WithStore("tenant-b")
	if err := a.Load(testRelation(5), "K"); err != nil {
		t.Fatal(err)
	}

	beforeA, beforeB := a.LogicalErrCount(), b.LogicalErrCount()
	if got := b.Search(nil); got != nil {
		t.Fatalf("Search on a never-loaded store = %v", got)
	}
	if got := a.Search([]relation.Value{relation.Int(1)}); len(got) != 1 {
		t.Fatalf("tenant-a Search = %v", got)
	}
	if n := b.LogicalErrCount(); n != beforeB+1 {
		t.Fatalf("tenant-b's failing Search moved its count %d -> %d", beforeB, n)
	}
	if a.LogicalErrCount() != beforeA {
		t.Fatalf("tenant-a's bracket sees %q", a.LogicalErr())
	}
}

// transportStacks is every way a namespace view can reach one cloud: the
// two link stacks the conformance table and the concurrency stress both
// run over (the names say what both have always had: one connection).
// home returns the self-healing link the view rides (nil on the fail-fast
// stack).
var transportStacks = []struct {
	name string
	open func(addr string) (Transport, error)
	home func(v *StoreClient) *Reconnector
}{
	{"conns=1", func(addr string) (Transport, error) { return Dial(addr) }, nil},
	{"reconnect,conns=1", func(addr string) (Transport, error) { return DialReconnect(addr) },
		func(v *StoreClient) *Reconnector { return v.link.(*Reconnector) }},
}

// killCurrent severs a Reconnector's live connection and waits for the
// poison to register, so the next op deterministically runs a reconnect
// cycle.
func killCurrent(rc *Reconnector) {
	rc.mu.Lock()
	cur := rc.cur
	rc.mu.Unlock()
	if cur == nil {
		return
	}
	cur.conn.Close()
	for cur.stickyErr() == nil {
		time.Sleep(time.Millisecond)
	}
}

// TestTransportConformance runs one op script over every link stack, each
// against its own fresh cloud, and requires identical answers AND an
// identical per-namespace server-side op count: what the cloud — the
// adversary — observes must not depend on how requests reach it. The
// self-healing stack then loses its connection between Add and Flush and
// must land the buffered rows exactly once.
func TestTransportConformance(t *testing.T) {
	const ns = "conformance"
	tok := OwnerToken([]byte("conformance master key"), ns)
	// binRow is one conditional bin search's answer without its epoch,
	// which is random per store instance.
	type binRow struct {
		Tuples, Len int
		NotModified bool
	}
	type outcome struct {
		Bins                []binRow
		Search              []relation.Tuple
		Lookup              []int
		Fetch               []storage.EncRow
		Batch               [][]storage.EncRow
		VerN                uint64
		HitRows, TailRows   []storage.EncRow
		HitDelta, TailDelta bool
		Column, AllRows     []storage.EncRow
		Len                 int
		Stats               StoreStats
	}
	var want *outcome
	for _, stack := range transportStacks {
		t.Run(stack.name, func(t *testing.T) {
			cl, addr := startCloudListener(t)
			tr, err := stack.open(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			v := tr.Store(ns).(*StoreClient)
			v.SetAdminToken(tok)
			add := func(from, n int) {
				t.Helper()
				for i := from; i < from+n; i++ {
					if a := v.Add([]byte{byte(i)}, []byte{byte(100 + i)}, []byte("tok")); a != i {
						t.Fatalf("Add #%d = %d", i, a)
					}
				}
			}
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}

			var got outcome
			// The conditional bin search's rows (storage pins the same ones):
			// each answer is recorded without its epoch.
			bin := []relation.Value{relation.Int(2)}
			since := func(epoch uint64, have int) storage.BinAnswer {
				t.Helper()
				a, err := v.SearchSince(bin, epoch, have)
				check(err)
				got.Bins = append(got.Bins, binRow{len(a.Tuples), a.Len, a.NotModified})
				return a
			}
			check(v.Load(testRelation(20), "K"))
			loaded := since(0, 0)
			// After a Load: the new relation is a new epoch, whatever it holds.
			check(v.Load(testRelation(20), "K"))
			since(loaded.Epoch, loaded.Len)
			add(0, 6)
			check(v.Flush())
			got.Search = v.Search([]relation.Value{relation.Int(2)})
			got.Lookup = v.LookupToken([]byte("tok"))
			got.Fetch, err = v.Fetch([]int{0, 3})
			check(err)
			got.Batch, err = v.FetchBatch([][]int{{1}, {2, 4}})
			check(err)
			ver, err := v.EncVersion()
			check(err)
			got.VerN = ver.N
			got.HitRows, _, got.HitDelta, err = v.AttrColumnSince(ver, 6)
			check(err)
			add(6, 2)
			check(v.Flush())
			got.TailRows, _, got.TailDelta, err = v.AttrColumnSince(ver, 6)
			check(err)
			// A negative have is a full resend, as storage documents it — and
			// must not poison the connection: the ops below ride it.
			full, _, fullDelta, err := v.AttrColumnSince(ver, -1)
			check(err)
			fullRows, _, rowsDelta, err := v.RowsSince(ver, -1)
			check(err)
			if len(full) != 8 || len(fullRows) != 8 || fullDelta || rowsDelta {
				t.Fatalf("have=-1 pulls: %d/%d rows, delta %v/%v; want the full 8, no delta",
					len(full), len(fullRows), fullDelta, rowsDelta)
			}
			// The unconditional pulls are the conditional ones from the zero
			// version: the same rows, one server op each, never a cond hit.
			got.Column, got.AllRows = v.AttrColumn(), v.Rows()
			if !reflect.DeepEqual(got.Column, full) || !reflect.DeepEqual(got.AllRows, fullRows) {
				t.Fatalf("AttrColumn/Rows differ from the full conditional pulls: %v / %v", got.Column, got.AllRows)
			}
			check(v.Insert(relation.Tuple{ID: 777, Values: []relation.Value{relation.Int(42)}}))
			got.Len = v.Len()
			first := since(0, 0)
			since(first.Epoch, first.Len) // not modified
			check(v.Insert(relation.Tuple{ID: 778, Values: []relation.Value{relation.Int(3)}}))
			since(first.Epoch, first.Len) // unchanged by an insert into another bin
			check(v.Insert(relation.Tuple{ID: 779, Values: []relation.Value{relation.Int(2)}}))
			cur := since(first.Epoch, first.Len) // modified by an insert into the bin
			since(cur.Epoch^1, cur.Len)          // epoch mismatch
			since(cur.Epoch, cur.Len+1)          // have past the length
			if v.LogicalErrCount() != 0 || v.Err() != nil {
				t.Fatalf("script left errors: %v / %v", v.LogicalErr(), v.Err())
			}
			ctl, err := Dial(addr)
			check(err)
			defer ctl.Close()
			got.Stats, err = ctl.AdminStats(ns, tok)
			check(err)
			// After a snapshot restore (which restarts the op counters): the
			// reborn store is a new epoch.
			var snap bytes.Buffer
			check(cl.Save(&snap))
			check(cl.Restore(&snap))
			reborn := since(cur.Epoch, cur.Len)
			since(reborn.Epoch, reborn.Len)

			wantBins := []binRow{
				{4, 20, false}, {4, 20, false}, // zero version; after a Load
				{4, 21, false}, {0, 21, true}, {0, 22, true}, {5, 23, false}, // zero version; not modified; other bin; the bin
				{5, 23, false}, {5, 23, false}, // epoch mismatch; have past the length
				{5, 23, false}, {0, 23, true}, // after a restore; revalidated there
			}
			if len(got.Search) != 4 || len(got.Lookup) != 6 || len(got.Batch) != 2 ||
				!got.HitDelta || len(got.HitRows) != 0 || !got.TailDelta || len(got.TailRows) != 2 ||
				got.VerN != 6 || got.Len != 8 || got.Stats.EncRows != 8 || got.Stats.PlainTuples != 23 ||
				got.Stats.Ops != 26 || got.Stats.CondHits != 4 || !reflect.DeepEqual(got.Bins, wantBins) {
				t.Fatalf("script answers wrong: %+v", got)
			}
			if want == nil {
				want = &got
			} else if !reflect.DeepEqual(&got, want) {
				t.Fatalf("stack answers or server op count differ from %s:\n got %+v\nwant %+v", transportStacks[0].name, got, *want)
			}

			if stack.home == nil {
				return
			}
			add(8, 3)
			killCurrent(stack.home(v))
			check(v.Flush())
			if n := v.Len(); n != 11 {
				t.Fatalf("Len after a kill between Add and Flush = %d, want exactly 11", n)
			}
			if got := v.Search([]relation.Value{relation.Int(42)}); len(got) != 1 {
				t.Fatalf("insert after the reconnect: %v", got)
			}
		})
	}
}

// TestTwoNamespacesConcurrently hammers two namespaces through every link
// stack under -race: interleaved writes, reads and per-store loads must
// stay isolated.
func TestTwoNamespacesConcurrently(t *testing.T) {
	_, addr := startCloudListener(t)
	for _, stack := range transportStacks {
		t.Run(stack.name, func(t *testing.T) {
			tr, err := stack.open(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })

			var wg sync.WaitGroup
			fail := make(chan error, 16)
			report := func(format string, args ...any) {
				select {
				case fail <- fmt.Errorf(format, args...):
				default:
				}
			}
			for _, ns := range []string{"stress-a-" + stack.name, "stress-b-" + stack.name} {
				wg.Add(1)
				go func(ns string) {
					defer wg.Done()
					v := tr.Store(ns)
					base := v.Len()
					for i := 0; i < 40; i++ {
						want := fmt.Sprintf("%s-%d", ns, i)
						addr := v.Add([]byte(want), nil, []byte(ns))
						if addr != base+i {
							report("%s: addr %d, want %d", ns, addr, base+i)
							return
						}
						rows, err := v.Fetch([]int{addr})
						if err != nil || string(rows[0].TupleCT) != want {
							report("%s: fetch(%d) = %v, %v", ns, addr, rows, err)
							return
						}
						if got := v.LookupToken([]byte(ns)); len(got) != i+1 {
							report("%s: token index has %d addrs, want %d", ns, len(got), i+1)
							return
						}
					}
				}(ns)
			}
			wg.Wait()
			close(fail)
			for err := range fail {
				t.Error(err)
			}
		})
	}
}
