package wire

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

// chaosServer hosts a Cloud on a fixed loopback address and can kill every
// live connection plus the listener, then restart — possibly with a
// different Cloud — on the same address: the wire-level shape of a cloud
// process crashing and coming back.
type chaosServer struct {
	addr  string
	mu    sync.Mutex
	lis   net.Listener
	conns []net.Conn
}

func newChaosServer(t testing.TB, cl *Cloud) *chaosServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &chaosServer{addr: lis.Addr().String()}
	s.start(cl, lis)
	t.Cleanup(s.kill)
	return s
}

func (s *chaosServer) start(cl *Cloud, lis net.Listener) {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go cl.ServeConn(conn)
		}
	}()
}

// kill closes the listener and every established connection.
func (s *chaosServer) kill() {
	s.mu.Lock()
	lis, conns := s.lis, s.conns
	s.lis, s.conns = nil, nil
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// restart serves cl on the same address.
func (s *chaosServer) restart(t testing.TB, cl *Cloud) {
	t.Helper()
	lis, err := net.Listen("tcp", s.addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", s.addr, err)
	}
	s.start(cl, lis)
}

// fastOpts keeps test reconnect cycles snappy.
var fastOpts = ReconnectOptions{MaxRetries: 20, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

func reconnectorFor(t testing.TB, s *chaosServer) *Reconnector {
	t.Helper()
	rc := NewReconnector(func() (*Client, error) { return Dial(s.addr) }, fastOpts)
	t.Cleanup(func() { rc.Close() })
	return rc
}

func testRelation(n int) *relation.Relation {
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	for i := 0; i < n; i++ {
		rel.MustInsert(relation.Int(int64(i % 5)))
	}
	return rel
}

// TestReconnectorPlainSurvivesRestart: a kill plus a restart with an EMPTY
// cloud — the worst case, no snapshot at all — is invisible to the plain
// path: the reconnect re-ships the mirrored relation, inserts included,
// exactly once.
func TestReconnectorPlainSurvivesRestart(t *testing.T) {
	srv := newChaosServer(t, NewCloud())
	rc := reconnectorFor(t, srv).WithStore(DefaultStore)

	if err := rc.Load(testRelation(20), "K"); err != nil {
		t.Fatal(err)
	}
	if err := rc.Insert(relation.Tuple{ID: 777, Values: []relation.Value{relation.Int(42)}}); err != nil {
		t.Fatal(err)
	}
	want := rc.Search([]relation.Value{relation.Int(2)})
	if len(want) != 4 {
		t.Fatalf("pre-kill Search = %d tuples, want 4", len(want))
	}

	srv.kill()
	srv.restart(t, NewCloud()) // fresh empty cloud: everything must come from the mirror

	got := rc.Search([]relation.Value{relation.Int(2)})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restart Search = %v, want %v", got, want)
	}
	if ins := rc.Search([]relation.Value{relation.Int(42)}); len(ins) != 1 || ins[0].ID != 777 {
		t.Fatalf("insert not exactly-once after restart: %v", ins)
	}
	if rc.Err() != nil {
		t.Fatalf("reconnector poisoned: %v", rc.Err())
	}
}

// TestReconnectorReplaysRetainedUploads: encrypted rows buffered when the
// connection died are replayed onto a cloud restored from the last
// snapshot, at the addresses Add handed out.
func TestReconnectorReplaysRetainedUploads(t *testing.T) {
	cl := NewCloud()
	srv := newChaosServer(t, cl)
	rc := reconnectorFor(t, srv).WithStore(DefaultStore)

	for i := 0; i < 5; i++ {
		if addr := rc.Add([]byte{byte(i)}, nil, []byte("tok")); addr != i {
			t.Fatalf("Add #%d = %d", i, addr)
		}
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := cl.Save(&snap); err != nil {
		t.Fatal(err)
	}
	// Buffer three more rows; their flush will never reach the old server.
	for i := 5; i < 8; i++ {
		if addr := rc.Add([]byte{byte(i)}, nil, []byte("tok")); addr != i {
			t.Fatalf("Add #%d = %d", i, addr)
		}
	}

	srv.kill()
	cl2 := NewCloud()
	if err := cl2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	srv.restart(t, cl2)

	// Any read forces flush; the reconnect cycle replays the retained rows.
	if n := rc.Len(); n != 8 {
		t.Fatalf("Len after replay = %d, want 8", n)
	}
	rows, err := rc.Fetch([]int{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if !bytes.Equal(r.TupleCT, []byte{byte(5 + i)}) {
			t.Fatalf("replayed row %d = %v", 5+i, r.TupleCT)
		}
	}
	if got := rc.LookupToken([]byte("tok")); len(got) != 8 {
		t.Fatalf("token index after replay: %v", got)
	}
	if rc.Err() != nil {
		t.Fatalf("reconnector poisoned: %v", rc.Err())
	}
}

// TestReconnectorDoesNotReplayAppliedBatch: the ack-lost case. The server
// applied the batch but the acknowledgment died with the connection; the
// resync arithmetic (server rows == acknowledged + retained) must mark the
// batch applied instead of doubling every row.
func TestReconnectorDoesNotReplayAppliedBatch(t *testing.T) {
	cl := NewCloud()
	srv := newChaosServer(t, cl)
	rc := reconnectorFor(t, srv).WithStore(DefaultStore)

	for i := 0; i < 5; i++ {
		rc.Add([]byte{byte(i)}, nil, nil)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		rc.Add([]byte{byte(i)}, nil, nil)
	}
	// Apply the same three rows server-side through an independent client:
	// exactly the state left by a flush whose response was lost.
	direct, err := Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		direct.WithStore(DefaultStore).Add([]byte{byte(i)}, nil, nil)
	}
	if err := direct.WithStore(DefaultStore).Flush(); err != nil {
		t.Fatal(err)
	}
	direct.Close()

	srv.kill()
	srv.restart(t, cl) // same cloud: connection died, state survived

	if n := rc.Len(); n != 8 {
		t.Fatalf("Len = %d, want 8 (batch must not replay)", n)
	}
	if rc.Err() != nil {
		t.Fatalf("reconnector poisoned: %v", rc.Err())
	}
}

// TestReconnectorUnreconcilableFailsLoudly: a cloud restarted from a
// snapshot that predates acknowledged uploads can no longer honour the
// addresses the owner holds; the reconnector must fail permanently, not
// serve wrong rows.
func TestReconnectorUnreconcilableFailsLoudly(t *testing.T) {
	srv := newChaosServer(t, NewCloud())
	rc := reconnectorFor(t, srv).WithStore(DefaultStore)
	for i := 0; i < 5; i++ {
		rc.Add([]byte{byte(i)}, nil, nil)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}

	srv.kill()
	srv.restart(t, NewCloud()) // empty: the five acknowledged rows are gone

	if _, err := rc.Fetch([]int{0}); err == nil || !strings.Contains(err.Error(), "cannot reconcile") {
		t.Fatalf("irrecoverable restart: %v", err)
	}
	if err := rc.Err(); err == nil {
		t.Fatal("permanent failure not sticky")
	}
	// Fail-fast afterwards.
	if _, err := rc.Fetch([]int{0}); err == nil {
		t.Fatal("op after permanent failure succeeded")
	}
}

// TestReconnectorGivesUpAfterMaxRetries: with nothing listening, the
// redial loop exhausts its attempts and surfaces a permanent error.
func TestReconnectorGivesUpAfterMaxRetries(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	rc := NewReconnector(func() (*Client, error) { return Dial(addr) },
		ReconnectOptions{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Clock: newFakeClock(true)})
	defer rc.Close()
	if err := rc.Ping(); err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("Ping against nothing: %v", err)
	}
	if rc.Err() == nil {
		t.Fatal("exhausted redial not sticky")
	}
}

// Close aborting a reconnect cycle parked in backoff is covered
// deterministically by TestReconnectBackoffCloseAborts (clock_test.go),
// which replaces the old wall-clock-sleeping version of the test.

// TestReconnectorConcurrentOpsSurviveKill: many goroutines read through
// one reconnector while the server is repeatedly killed and restarted
// (same cloud — connection chaos, not data loss); every op must succeed
// (-race covers the interleavings).
func TestReconnectorConcurrentOpsSurviveKill(t *testing.T) {
	cl := NewCloud()
	srv := newChaosServer(t, cl)
	rc := reconnectorFor(t, srv).WithStore(DefaultStore)
	if err := rc.Load(testRelation(30), "K"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rc.Add([]byte{byte(i)}, nil, []byte("t"))
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := rc.Search([]relation.Value{relation.Int(int64(w % 5))}); got == nil {
					errCh <- fmt.Errorf("worker %d: Search returned nil (iter %d): logical=%v err=%v", w, i, rc.LogicalErr(), rc.Err())
					return
				}
				if _, err := rc.Fetch([]int{w % 10}); err != nil {
					errCh <- fmt.Errorf("worker %d: Fetch (iter %d): %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for k := 0; k < 3; k++ {
		time.Sleep(30 * time.Millisecond)
		srv.kill()
		srv.restart(t, cl)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
