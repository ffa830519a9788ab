package ring

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

var testRingTok = []byte("test-cluster-secret")

// testNode is one ring member: a real wire.Cloud on a TCP loopback
// listener that tracks accepted connections, so kill() severs live
// clients too — closing only the listener would leave established
// transports working and no failover would ever trigger.
type testNode struct {
	t    *testing.T
	addr string

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	accepted int // connections accepted over the node's lifetime
}

type trackedListener struct {
	net.Listener
	n *testNode
}

func (tl trackedListener) Accept() (net.Conn, error) {
	c, err := tl.Listener.Accept()
	if err == nil {
		tl.n.mu.Lock()
		tl.n.conns[c] = struct{}{}
		tl.n.accepted++
		tl.n.mu.Unlock()
	}
	return c, err
}

// startTestNode boots a fresh empty node on an ephemeral port.
func startTestNode(t *testing.T) *testNode {
	t.Helper()
	n := &testNode{t: t}
	n.start("127.0.0.1:0")
	t.Cleanup(n.kill)
	return n
}

// start serves a brand-new (empty) cloud on the given address.
func (n *testNode) start(addr string) {
	n.t.Helper()
	var lis net.Listener
	var err error
	// Rebinding the same port right after a kill can transiently fail.
	for i := 0; i < 50; i++ {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		n.t.Fatalf("listen %s: %v", addr, err)
	}
	cl := wire.NewCloud()
	cl.SetRingToken(testRingTok)
	n.mu.Lock()
	n.lis = lis
	n.conns = make(map[net.Conn]struct{})
	n.mu.Unlock()
	n.addr = lis.Addr().String()
	go func() { _ = cl.Serve(trackedListener{Listener: lis, n: n}) }()
}

// kill severs the node completely: listener and every accepted conn.
func (n *testNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lis != nil {
		n.lis.Close()
		n.lis = nil
	}
	n.severLocked()
}

// sever closes every accepted conn but keeps the listener and the store:
// the node stays up, its clients' connections die.
func (n *testNode) sever() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.severLocked()
}

func (n *testNode) severLocked() {
	for c := range n.conns {
		c.Close()
		delete(n.conns, c)
	}
}

// acceptedConns counts the connections the node has accepted.
func (n *testNode) acceptedConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.accepted
}

// restartEmpty kills the node and brings an empty replacement up on the
// SAME address — the rejoining-node scenario.
func (n *testNode) restartEmpty() {
	n.t.Helper()
	n.kill()
	n.start(n.addr)
}

// dialNode opens a throwaway control connection (fresh each call, since
// kills sever previously dialed clients).
func dialNode(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func nodeInfo(t *testing.T, addr, ns string) wire.StoreInfo {
	t.Helper()
	info, err := dialNode(t, addr).StoreInfo(ns)
	if err != nil {
		t.Fatalf("StoreInfo(%s) on %s: %v", ns, addr, err)
	}
	return info
}

func nodeRows(t *testing.T, addr, ns string) []storage.EncRow {
	t.Helper()
	return dialNode(t, addr).WithStore(ns).Rows()
}

func sameRows(a, b []storage.EncRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].TupleCT, b[i].TupleCT) ||
			!bytes.Equal(a[i].AttrCT, b[i].AttrCT) || !bytes.Equal(a[i].Token, b[i].Token) {
			return false
		}
	}
	return true
}

func intRelation(n int) *relation.Relation {
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	for i := 0; i < n; i++ {
		rel.MustInsert(relation.Int(int64(i)))
	}
	return rel
}

// populateNode loads the plain partition and uploads rows [0, encRows)
// through a direct connection, claiming the namespace with tok.
func populateNode(t *testing.T, addr, ns string, tok []byte, encRows int) {
	t.Helper()
	sc := dialNode(t, addr).WithStore(ns)
	sc.SetAdminToken(tok)
	if err := sc.Load(intRelation(10), "K"); err != nil {
		t.Fatalf("load on %s: %v", addr, err)
	}
	appendRows(t, sc, 0, encRows)
}

// appendRows uploads deterministic rows [start, start+n) and flushes.
func appendRows(t *testing.T, sc *wire.StoreClient, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if addr := sc.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("Add row %d: addr = %d", i, addr)
		}
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
}

func testRow(i int) storage.EncRow {
	return storage.EncRow{
		TupleCT: []byte(fmt.Sprintf("tuple-%d", i)),
		AttrCT:  []byte(fmt.Sprintf("attr-%d", i)),
		Token:   []byte{byte(i % 3)},
	}
}

// TestCoordinatorHealthFlips: liveness changes bump the directory
// version, each flip exactly once, and the served blob carries them.
func TestCoordinatorHealthFlips(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()

	co.HealthCheckOnce()
	if v := co.Directory().Version; v != 1 {
		t.Fatalf("healthy sweep bumped version to %d", v)
	}

	b.kill()
	co.HealthCheckOnce()
	dir := co.Directory()
	if dir.Version != 2 {
		t.Fatalf("version after node death = %d, want 2", dir.Version)
	}
	for _, n := range dir.Nodes {
		if want := n.Addr != b.addr; n.Alive != want {
			t.Fatalf("node %s alive = %v, want %v", n.ID, n.Alive, want)
		}
	}
	served, err := DecodeDirectory(co.DirectoryBlob())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, dir) {
		t.Fatalf("served directory = %+v, want %+v", served, dir)
	}

	b.restartEmpty()
	co.HealthCheckOnce()
	dir = co.Directory()
	if dir.Version != 3 {
		t.Fatalf("version after rejoin = %d, want 3", dir.Version)
	}
	for _, n := range dir.Nodes {
		if !n.Alive {
			t.Fatalf("node %s still dead after rejoin", n.ID)
		}
	}
}

// TestCoordinatorRepairTail: a replica whose encrypted rows lag behind an
// otherwise identical peer is caught up with a tail append, not a full
// snapshot.
func TestCoordinatorRepairTail(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	populateNode(t, a.addr, ns, tok, 5)
	populateNode(t, b.addr, ns, tok, 5)
	// Three more rows land only on a: b is now a strict prefix.
	sc := dialNode(t, a.addr).WithStore(ns)
	sc.SetAdminToken(tok)
	appendRows(t, sc, 5, 3)

	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()

	st := co.RepairOnce()
	if st.Tails != 1 || st.Snapshots != 0 || st.Rows != 3 {
		t.Fatalf("repair stats = %+v, want one 3-row tail", st)
	}
	if got := nodeInfo(t, b.addr, ns); got.EncRows != 8 {
		t.Fatalf("lagging replica has %d rows after repair, want 8", got.EncRows)
	}
	if !sameRows(nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)) {
		t.Fatal("replicas diverge after tail repair")
	}
	// A second sweep must find nothing to do.
	if st := co.RepairOnce(); st.Tails+st.Snapshots != 0 {
		t.Fatalf("second sweep repaired again: %+v", st)
	}
}

// TestCoordinatorRepairSnapshot: a replica missing the namespace entirely
// receives a full snapshot, including the plain partition and the claim.
func TestCoordinatorRepairSnapshot(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	populateNode(t, a.addr, ns, tok, 6)

	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()

	st := co.RepairOnce()
	if st.Snapshots != 1 || st.Tails != 0 {
		t.Fatalf("repair stats = %+v, want one snapshot", st)
	}
	src, got := nodeInfo(t, a.addr, ns), nodeInfo(t, b.addr, ns)
	if !got.Exists || got.EncRows != src.EncRows || got.PlainTuples != src.PlainTuples || got.Claimed != src.Claimed {
		t.Fatalf("restored replica %+v != source %+v", got, src)
	}
	if !sameRows(nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)) {
		t.Fatal("replicas diverge after snapshot repair")
	}
	// The claim travelled with the snapshot.
	if _, err := dialNode(t, b.addr).AdminStats(ns, tok); err != nil {
		t.Fatalf("owner token refused on restored replica: %v", err)
	}
	if st := co.RepairOnce(); st.Tails+st.Snapshots != 0 {
		t.Fatalf("second sweep repaired again: %+v", st)
	}
}

// startCoordinatorCloud serves co's directory over the wire like qbring
// does, and returns the coordinator address.
func startCoordinatorCloud(t *testing.T, co *Coordinator) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewCloud()
	srv.SetRingDirectory(co.DirectoryBlob)
	srv.SetRingRepair(func(ns string) error {
		co.RepairNamespace(ns)
		return nil
	})
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	return lis.Addr().String()
}

// TestRouterReplicationFailoverRepair walks the full node-loss story on a
// live two-node ring: fan-out parity, read failover off a killed
// preferred replica, quarantined writes under degraded replication,
// snapshot repair of the empty rejoiner, and readmission back to full
// fan-out — ending with byte-identical replicas.
func TestRouterReplicationFailoverRepair(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	nodes := map[string]*testNode{a.addr: a, b.addr: b}
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	coAddr := startCoordinatorCloud(t, co)

	router, err := DialRouter(coAddr, RouterOptions{DownCooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	rs := router.WithStore(ns)
	rs.SetAdminToken(tok)
	if got := rs.Placement(); len(got) != 2 {
		t.Fatalf("placement = %v, want both nodes", got)
	}

	// Phase 1: writes through the router land on BOTH replicas.
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("Add row %d: addr = %d", i, addr)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	for addr := range nodes {
		if info := nodeInfo(t, addr, ns); !info.Exists || info.EncRows != 5 || info.PlainTuples != 10 {
			t.Fatalf("replica %s after fan-out: %+v", addr, info)
		}
	}
	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search = %d tuples, want 1", len(got))
	}

	// Phase 2: kill the preferred replica; reads must fail over without
	// surfacing an owner-visible error, writes must keep committing on the
	// survivor with the dead node quarantined.
	pref := rs.Placement()[0].Addr
	t.Logf("killing preferred replica %s", pref)
	nodes[pref].kill()

	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search after node kill = %d tuples, want 1", len(got))
	}
	if n := rs.LogicalErrCount(); n != 0 {
		t.Fatalf("masked failover leaked %d logical errors", n)
	}
	for i := 5; i < 7; i++ {
		if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("degraded Add row %d: addr = %d", i, addr)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatalf("degraded flush: %v", err)
	}
	inSync := rs.InSync()
	for i, n := range rs.Placement() {
		if want := n.Addr != pref; inSync[i] != want {
			t.Fatalf("inSync[%s] = %v, want %v", n.Addr, inSync[i], want)
		}
	}

	// Phase 3: the dead node rejoins EMPTY on the same address; one repair
	// sweep rebuilds it from the survivor via snapshot.
	nodes[pref].restartEmpty()
	st := co.RepairOnce()
	if st.Snapshots != 1 {
		t.Fatalf("rejoin repair stats = %+v, want one snapshot", st)
	}
	if got := nodeInfo(t, pref, ns); got.EncRows != 7 {
		t.Fatalf("rejoined replica has %d rows, want 7", got.EncRows)
	}

	// Phase 4: the next settled flush readmits the repaired replica, and
	// subsequent writes fan out to both again.
	time.Sleep(60 * time.Millisecond) // let the down-cooldown lapse
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ok := range rs.InSync() {
		if !ok {
			t.Fatalf("replica %d not readmitted after repair: %v", i, rs.InSync())
		}
	}
	if addr := rs.Add(testRow(7).TupleCT, testRow(7).AttrCT, testRow(7).Token); addr != 7 {
		t.Fatalf("post-readmission Add: addr = %d", addr)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	rowsA, rowsB := nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)
	if len(rowsA) != 8 || !sameRows(rowsA, rowsB) {
		t.Fatalf("replicas diverge after full cycle: %d vs %d rows", len(rowsA), len(rowsB))
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("view transport error with both replicas live: %v", err)
	}
}

// TestRouterFailureWitnessIsPerNamespace: a namespace whose every read
// fails (it was never loaded) shares both nodes — and so both node
// transports — with a healthy namespace. The failing tenant's errors must
// stay its own: the healthy tenant's reads keep answering from their
// preferred replica, and nothing lands in its logical record. (The old
// failure witness was the transport-wide logical-error counter, so each
// failing neighbour op made a concurrent healthy read "fail" on every
// replica in turn.)
func TestRouterFailureWitnessIsPerNamespace(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	healthy, failing := router.WithStore("healthy"), router.WithStore("never-loaded")
	if err := healthy.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	prefOf := func(s *ReplicatedStore) int {
		s.prefMu.Lock()
		defer s.prefMu.Unlock()
		return s.pref
	}
	if got := healthy.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search = %d tuples, want 1", len(got))
	}
	pref := prefOf(healthy)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					failing.Search(nil)
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if got := healthy.Search([]relation.Value{relation.Int(int64(i % 10))}); len(got) != 1 {
			t.Errorf("healthy Search #%d = %d tuples, want 1 (logical: %v)", i, len(got), healthy.LogicalErr())
			break
		}
		if got := prefOf(healthy); got != pref {
			t.Errorf("healthy read #%d moved the preferred replica %d -> %d", i, pref, got)
			break
		}
	}
	close(stop)
	wg.Wait()

	if n := healthy.LogicalErrCount(); n != 0 {
		t.Fatalf("healthy namespace recorded %d logical errors: %v", n, healthy.LogicalErr())
	}
	if failing.LogicalErrCount() == 0 {
		t.Fatal("the failing namespace's own record stayed empty")
	}
}

// TestRingLogicalErrIsTheLatest: a ring view's LogicalErr is its latest
// failure, as wire.Backend documents, not its first — the root client
// reports it for every query whose window failed, so a first-error record
// would blame every later failure on an unrelated cause.
func TestRingLogicalErrIsTheLatest(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	rs := router.WithStore("never-loaded")
	if got := rs.Search([]relation.Value{relation.Int(3)}); got != nil {
		t.Fatalf("Search on a never-loaded namespace = %v", got)
	}
	if rs.LogicalErr() == nil {
		t.Fatal("failed Search recorded no error")
	}
	rs.SearchRange(relation.Int(0), relation.Int(9))
	if err := rs.LogicalErr(); !errors.Is(err, wire.ErrNoRangeSearch) {
		t.Fatalf("LogicalErr after SearchRange = %v, want %v", err, wire.ErrNoRangeSearch)
	}
	if n := rs.LogicalErrCount(); n != 2 {
		t.Fatalf("LogicalErrCount = %d, want 2", n)
	}
}

// TestRouterCloseEndsEveryView: a closed router's views answer nothing and
// dial nothing — Close is final, not a reconnect — and a stopped
// coordinator opens no node connection either.
func TestRouterCloseEndsEveryView(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const ns = "data"
	rs := router.WithStore(ns)
	rs.SetAdminToken(wire.OwnerToken([]byte("master"), ns))
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search = %d tuples, want 1", len(got))
	}
	accepted := func() int { return a.acceptedConns() + b.acceptedConns() }

	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	before := accepted()
	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 0 {
		t.Errorf("Search after Close = %d tuples, want none", len(got))
	}
	if rs.LogicalErrCount() == 0 {
		t.Error("Search after Close recorded no logical error")
	}
	if err := rs.Ping(); err == nil {
		t.Error("view Ping after Close succeeded")
	}
	if err := router.Ping(); err == nil {
		t.Error("router Ping after Close succeeded")
	}
	if err := rs.Flush(); err == nil {
		t.Error("Flush after Close succeeded")
	}
	if got := accepted(); got != before {
		t.Errorf("closed router opened %d node connections", got-before)
	}

	co.Stop()
	before = accepted()
	co.RepairNamespace(ns)
	co.HealthCheckOnce()
	if got := accepted(); got != before {
		t.Errorf("stopped coordinator opened %d node connections", got-before)
	}
}

// TestRingNodeRedialsAfterCooldown: a node whose connections die (its
// store and listener stay up) is failed over at once and not redialed
// inside the down-cooldown; once the cooldown lapses exactly one fresh
// connection reaches it, and the next settled write readmits its replica.
func TestRingNodeRedialsAfterCooldown(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	nodes := map[string]*testNode{a.addr: a, b.addr: b}
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	// Long enough for the in-cooldown checks to end inside it on a slow
	// (or -race) host.
	const cooldown = 300 * time.Millisecond
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{DownCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const ns = "data"
	rs := router.WithStore(ns)
	rs.SetAdminToken(wire.OwnerToken([]byte("master"), ns))
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	appendThrough := func(start, n int) {
		t.Helper()
		for i := start; i < start+n; i++ {
			if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
				t.Fatalf("Add row %d: addr = %d", i, addr)
			}
		}
		if err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	appendThrough(0, 3)
	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search = %d tuples, want 1", len(got))
	}

	victim := nodes[rs.Placement()[0].Addr]
	before := victim.acceptedConns()
	victim.sever()
	severed := time.Now()
	for i := 0; i < 5; i++ {
		if got := rs.Search([]relation.Value{relation.Int(int64(i))}); len(got) != 1 {
			t.Fatalf("Search #%d after sever = %d tuples, want 1", i, len(got))
		}
	}
	if n := rs.LogicalErrCount(); n != 0 {
		t.Fatalf("failover leaked %d logical errors: %v", n, rs.LogicalErr())
	}
	// Writes inside the cooldown leave the victim quarantined, not redialed.
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(severed); elapsed >= cooldown {
		t.Fatalf("the in-cooldown checks took %v, longer than the %v cooldown", elapsed, cooldown)
	}
	if got := victim.acceptedConns(); got != before {
		t.Fatalf("%d connections reached the victim inside the cooldown", got-before)
	}
	if inSync := rs.InSync(); inSync[0] {
		t.Fatalf("victim still in the write set inside its cooldown: %v", inSync)
	}

	time.Sleep(cooldown + 10*time.Millisecond)
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := victim.acceptedConns(); got != before+1 {
		t.Fatalf("%d connections reached the victim after the cooldown, want 1", got-before)
	}
	for i, ok := range rs.InSync() {
		if !ok {
			t.Fatalf("replica %d not readmitted after the cooldown: %v", i, rs.InSync())
		}
	}
	appendThrough(3, 2)
	if !sameRows(nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)) {
		t.Fatal("replicas diverge after readmission")
	}
}

// TestRingQuarantinesReplicaThatRestartedBehind: a node restarts from an
// older state while its replica is in the write set, a read finds the dead
// connection, and the cooldown lapses before the next write. That write
// must not reach the restarted replica over its fresh connection (whose
// view would hand out addresses from the shorter length): the replica is
// quarantined, and readmission repairs it from its peer.
func TestRingQuarantinesReplicaThatRestartedBehind(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	nodes := map[string]*testNode{a.addr: a, b.addr: b}
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	const cooldown = 20 * time.Millisecond
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{DownCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	rs := router.WithStore(ns)
	rs.SetAdminToken(tok)
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("Add row %d: addr = %d", i, addr)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}

	// The first replica comes back holding only the first row, as from a
	// snapshot taken before the last two.
	victim := rs.Placement()[0].Addr
	nodes[victim].restartEmpty()
	populateNode(t, victim, ns, tok, 1)
	if got := rs.Search([]relation.Value{relation.Int(3)}); len(got) != 1 {
		t.Fatalf("Search after restart = %d tuples, want 1", len(got))
	}
	time.Sleep(2 * cooldown)

	if addr := rs.Add(testRow(3).TupleCT, testRow(3).AttrCT, testRow(3).Token); addr != 3 {
		t.Fatalf("Add after the restart: addr = %d, want 3", addr)
	}
	if inSync := rs.InSync(); inSync[0] || !inSync[1] {
		t.Fatalf("write set after the restart = %v, want only the peer", inSync)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ok := range rs.InSync() {
		if !ok {
			t.Fatalf("replica %d not readmitted after repair: %v", i, rs.InSync())
		}
	}
	rowsA, rowsB := nodeRows(t, a.addr, ns), nodeRows(t, b.addr, ns)
	if len(rowsA) != 4 || !sameRows(rowsA, rowsB) {
		t.Fatalf("replicas diverge after repair: %d vs %d rows", len(rowsA), len(rowsB))
	}
}

// TestRingWritesAfterEveryReplicaReconnected: when every in-sync replica's
// connection died, no peer is left to verify the others against; once the
// cooldown lapses, the next write readmits those holding what this view's
// writes left instead of refusing forever.
func TestRingWritesAfterEveryReplicaReconnected(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	const cooldown = 20 * time.Millisecond
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{DownCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const ns = "data"
	rs := router.WithStore(ns)
	rs.SetAdminToken(wire.OwnerToken([]byte("master"), ns))
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	a.sever()
	b.sever()
	if err := rs.Insert(relation.Tuple{ID: 10, Values: []relation.Value{relation.Int(10)}}); err == nil {
		t.Fatal("Insert with every connection dead succeeded")
	}
	time.Sleep(2 * cooldown)
	for i := 11; i < 13; i++ {
		if err := rs.Insert(relation.Tuple{ID: i, Values: []relation.Value{relation.Int(int64(i))}}); err != nil {
			t.Fatalf("Insert %d after both replicas reconnected: %v", i, err)
		}
	}
	for i, ok := range rs.InSync() {
		if !ok {
			t.Fatalf("replica %d left the write set: %v", i, rs.InSync())
		}
	}
	for _, addr := range []string{a.addr, b.addr} {
		if info := nodeInfo(t, addr, ns); info.PlainTuples != 12 {
			t.Fatalf("replica %s holds %d tuples, want 12", addr, info.PlainTuples)
		}
	}
}

// TestRingRefusesAddressesLostWithEveryConnection: rows Add buffered live
// only on the replicas' write views. When every one of those connections
// dies before the flush, the rows are on no replica: later flushes and
// adds must fail rather than hand their addresses out again — on a
// one-replica ring as on a two-replica one.
func TestRingRefusesAddressesLostWithEveryConnection(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			a, b := startTestNode(t), startTestNode(t)
			co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: replicas, RingToken: testRingTok, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Stop()
			const cooldown = 20 * time.Millisecond
			router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{DownCooldown: cooldown})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()

			const ns = "data"
			rs := router.WithStore(ns)
			rs.SetAdminToken(wire.OwnerToken([]byte("master"), ns))
			if err := rs.Load(intRelation(10), "K"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
					t.Fatalf("Add row %d: addr = %d", i, addr)
				}
				if i == 2 {
					if err := rs.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			a.sever()
			b.sever()
			for try := 0; try < 2; try++ {
				time.Sleep(2 * cooldown)
				if err := rs.Flush(); err == nil {
					t.Fatalf("Flush #%d of a row no replica holds succeeded", try)
				}
			}
			if addr := rs.Add(testRow(4).TupleCT, testRow(4).AttrCT, testRow(4).Token); addr != -1 {
				t.Fatalf("Add after the lost flush handed out address %d", addr)
			}
			for _, n := range rs.Placement() {
				if info := nodeInfo(t, n.Addr, ns); info.EncRows != 3 {
					t.Fatalf("replica %s holds %d rows, want 3", n.Addr, info.EncRows)
				}
			}
		})
	}
}

// TestRingReadmitsAgainstItsOwnWritesWhenNoPeerIsLeft: one node restarts
// from an older state and the other's connections die, so no in-sync peer
// is left to compare against. The replicas are readmitted against the
// lengths this view's writes left: the restarted one stays out (repair is
// off) and the next Add continues from the healthy peer's length.
func TestRingReadmitsAgainstItsOwnWritesWhenNoPeerIsLeft(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	nodes := map[string]*testNode{a.addr: a, b.addr: b}
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	const cooldown = 20 * time.Millisecond
	router, err := DialRouter(startCoordinatorCloud(t, co), RouterOptions{DownCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	rs := router.WithStore(ns)
	rs.SetAdminToken(tok)
	if err := rs.Load(intRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if addr := rs.Add(testRow(i).TupleCT, testRow(i).AttrCT, testRow(i).Token); addr != i {
			t.Fatalf("Add row %d: addr = %d", i, addr)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}

	co.Stop() // no repair: the restarted replica must stay out
	victim, peer := rs.Placement()[0].Addr, rs.Placement()[1].Addr
	nodes[victim].restartEmpty()
	populateNode(t, victim, ns, tok, 1)
	nodes[peer].sever()
	time.Sleep(2 * cooldown)
	if addr := rs.Add(testRow(3).TupleCT, testRow(3).AttrCT, testRow(3).Token); addr != -1 {
		t.Fatalf("Add with every write connection dead: addr = %d, want a refusal", addr)
	}
	time.Sleep(2 * cooldown)
	if addr := rs.Add(testRow(3).TupleCT, testRow(3).AttrCT, testRow(3).Token); addr != 3 {
		t.Fatalf("Add after the cooldown: addr = %d, want 3", addr)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if inSync := rs.InSync(); inSync[0] || !inSync[1] {
		t.Fatalf("write set = %v, want only the healthy peer", inSync)
	}
	if got := nodeInfo(t, victim, ns).EncRows; got != 1 {
		t.Fatalf("restarted replica holds %d rows, want its 1", got)
	}
	if got := nodeInfo(t, peer, ns).EncRows; got != 4 {
		t.Fatalf("healthy peer holds %d rows, want 4", got)
	}
}

// TestRingReadsFailOverPastAHangingDial: a node whose connect hangs holds
// up only the call dialing it. Meanwhile the view's Err answers and other
// reads fail over to the peer at once.
func TestRingReadsFailOverPastAHangingDial(t *testing.T) {
	a, b := startTestNode(t), startTestNode(t)
	co, err := New(Config{Nodes: []string{a.addr, b.addr}, Replicas: 2, RingToken: testRingTok, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	const ns = "data"
	tok := wire.OwnerToken([]byte("master"), ns)
	populateNode(t, a.addr, ns, tok, 0)
	populateNode(t, b.addr, ns, tok, 0)

	dirConn, err := wire.Dial(startCoordinatorCloud(t, co))
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	hung, release := make(chan struct{}), make(chan struct{})
	router, err := NewRouter(dirConn, func(addr string) (*wire.Client, error) {
		if addr == victim {
			close(hung)
			<-release
			return nil, fmt.Errorf("dial %s: connect timed out", addr)
		}
		return wire.Dial(addr)
	}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := router.WithStore(ns)
	victim = rs.Placement()[0].Addr
	search := func(out chan<- int) { out <- len(rs.Search([]relation.Value{relation.Int(3)})) }

	first, second := make(chan int, 1), make(chan int, 1)
	go search(first)
	<-hung
	go func() {
		if err := rs.Err(); err != nil {
			t.Errorf("Err while a dial is in flight = %v", err)
		}
		search(second)
	}()
	select {
	case n := <-second:
		if n != 1 {
			t.Errorf("read beside the hanging dial = %d tuples, want 1", n)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a read waited on another call's hanging dial")
	}
	close(release)
	if n := <-first; n != 1 {
		t.Errorf("the dialing read = %d tuples after failing over, want 1", n)
	}
	if n := rs.LogicalErrCount(); n != 0 {
		t.Errorf("failover leaked %d logical errors: %v", n, rs.LogicalErr())
	}
}
