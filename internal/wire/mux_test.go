package wire

import (
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
)

// pipeClient wires a Client to a scripted peer over net.Pipe. The script
// side speaks through a serverStream — the same framing the real server
// uses — so scripted tests exercise the handshake and the codec exactly
// as deployed.
func pipeClient(t *testing.T) (*Client, *serverStream) {
	t.Helper()
	cend, send := net.Pipe()
	c := NewClient(cend)
	t.Cleanup(func() { c.Close(); send.Close() })
	return c, newServerStream(send)
}

// serveHello answers the client's handshake from a scripted server. It
// returns false if the frame was not the expected opHello or the reply
// could not be written (the script should bail out).
func serveHello(ss *serverStream) bool {
	req, err := ss.readRequest()
	if err != nil || req.Op != opHello {
		return false
	}
	return ss.writeResponse(opHello, &response{ID: req.ID, Version: ProtocolVersion}) == nil
}

// TestMuxOutOfOrderResponses proves the demux: two calls go out on one
// connection, the scripted server answers them in reverse order, and each
// caller still receives its own response.
func TestMuxOutOfOrderResponses(t *testing.T) {
	c, ss := pipeClient(t)

	done := make(chan error, 1)
	go func() {
		if !serveHello(ss) {
			done <- fmt.Errorf("handshake script failed")
			return
		}
		var reqs []*request
		for i := 0; i < 2; i++ {
			req, err := ss.readRequest()
			if err != nil {
				done <- err
				return
			}
			reqs = append(reqs, req)
		}
		// Reply in reverse order; payload identifies the request it
		// answers (Fetch addr echoed back as the row address).
		for i := len(reqs) - 1; i >= 0; i-- {
			resp := response{ID: reqs[i].ID, RowBatches: [][]storage.EncRow{{{Addr: reqs[i].AddrBatches[0][0], TupleCT: []byte("x")}}}}
			if err := ss.writeResponse(opEncFetchBatch, &resp); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(addr int) {
			defer wg.Done()
			resp, err := c.roundTrip(&request{Op: opEncFetchBatch, AddrBatches: [][]int{{addr}}})
			if err != nil {
				errs[addr] = err
				return
			}
			if len(resp.RowBatches) != 1 || len(resp.RowBatches[0]) != 1 || resp.RowBatches[0][0].Addr != addr {
				errs[addr] = fmt.Errorf("caller %d got response payload %v", addr, resp.RowBatches)
			}
		}(i)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// TestLogicalErrorDoesNotPoison: a server-side logical error is returned
// to its call only; the client stays healthy and later calls succeed.
func TestLogicalErrorDoesNotPoison(t *testing.T) {
	c := startCloud(t)
	v := c.WithStore(DefaultStore)
	if _, err := v.Fetch([]int{42}); err == nil {
		t.Fatal("out-of-range fetch accepted")
	}
	if c.Err() != nil {
		t.Fatalf("logical error became sticky: %v", c.Err())
	}
	// Void methods record the error instead.
	if got := v.Search([]relation.Value{relation.Int(1)}); got != nil {
		t.Fatalf("search before load = %v", got)
	}
	if v.LogicalErr() == nil || !strings.Contains(v.LogicalErr().Error(), "no relation loaded") {
		t.Fatalf("LogicalErr = %v", v.LogicalErr())
	}
	if c.Err() != nil {
		t.Fatalf("void-method logical error became sticky: %v", c.Err())
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("client unusable after logical errors: %v", err)
	}
}

// TestTransportErrorPoisonsAndReleases: a mid-stream disconnect fails the
// in-flight call, poisons the client, and every caller blocked on the
// connection is released with the sticky transport error.
func TestTransportErrorPoisonsAndReleases(t *testing.T) {
	c, ss := pipeClient(t)

	const callers = 5
	read := make(chan struct{})
	go func() {
		_, _ = ss.readRequest() // absorb one request...
		close(read)             // ...then vanish without replying
	}()

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.Ping()
		}()
	}
	<-read
	// Server dies mid-conversation with responses owed.
	c.conn.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("caller succeeded after mid-stream disconnect")
		}
	}
	if c.Err() == nil {
		t.Fatal("transport failure not sticky")
	}
	// Poisoned client fails fast without touching the dead conn.
	if err := c.Ping(); err == nil {
		t.Fatal("ping on poisoned client succeeded")
	}
	if c.WithStore(DefaultStore).Add([]byte("x"), nil, nil) != -1 {
		t.Fatal("Add on poisoned client handed out an address")
	}
}

// countingConn counts the Write calls entered on a connection, whether or
// not they have returned.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestCloseReleasesBlockedSenders: the peer answers the handshake and then
// stops reading, so one caller is stuck inside the frame write and the
// rest wait for the send lock. A Close releases all of them with the
// client-closed error, and a clean close leaves Err nil.
func TestCloseReleasesBlockedSenders(t *testing.T) {
	cend, send := net.Pipe()
	defer send.Close()
	conn := &countingConn{Conn: cend}
	c := NewClient(conn)
	go serveHello(newServerStream(send))

	const callers = 5
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() { errs <- c.Ping() }()
	}
	// Every caller has registered its in-flight slot, and the one write
	// past the hello is entered and cannot finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		registered := len(c.inflight)
		c.mu.Unlock()
		if registered == callers && conn.writes.Load() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("senders never blocked: %d registered, %d writes entered", registered, conn.writes.Load())
		}
		time.Sleep(time.Millisecond)
	}

	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errClientClosed) {
				t.Fatalf("blocked sender released with %v, want %v", err, errClientClosed)
			}
		case <-timeout:
			t.Fatalf("Close released %d of %d blocked senders", i, callers)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err after a clean close = %v, want nil", err)
	}
}

// TestUnknownResponseIDFailsConnection: a response with an ID nobody is
// waiting for means the stream is corrupt; the client must poison itself
// rather than keep decoding garbage.
func TestUnknownResponseIDFailsConnection(t *testing.T) {
	c, ss := pipeClient(t)
	go func() {
		req, err := ss.readRequest()
		if err != nil {
			return
		}
		_ = ss.writeResponse(opHello, &response{ID: req.ID + 1000})
	}()
	if err := c.Ping(); err == nil {
		t.Fatal("call answered by a stray response ID succeeded")
	}
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "unknown response ID") {
		t.Fatalf("Err = %v, want unknown-response-ID poison", c.Err())
	}
}

// TestFlushFailureRetainsPending: a logically rejected upload batch stays
// buffered (its addresses are already live in the technique), serverLen
// is resynced via opEncLen, and a retry delivers the same rows at the
// same addresses.
func TestFlushFailureRetainsPending(t *testing.T) {
	c, ss := pipeClient(t)
	v := c.WithStore(DefaultStore)

	serverRows := 0
	rejected := false
	done := make(chan error, 1)
	go func() {
		for {
			req, err := ss.readRequest()
			if err != nil {
				done <- nil // client closed at test end
				return
			}
			var resp response
			resp.ID = req.ID
			switch req.Op {
			case opHello:
				resp.Version = ProtocolVersion
			case opEncAddBatch:
				if !rejected {
					rejected = true
					resp.Err = "enc store: simulated rejection"
				} else {
					serverRows += len(req.Batch)
					resp.N = len(req.Batch)
				}
			case opEncLen:
				resp.N = serverRows
			default:
				resp.Err = "unexpected op in script"
			}
			if err := ss.writeResponse(req.Op, &resp); err != nil {
				done <- err
				return
			}
		}
	}()

	a0 := v.Add([]byte("ct0"), []byte("a0"), nil)
	a1 := v.Add([]byte("ct1"), []byte("a1"), nil)
	if a0 != 0 || a1 != 1 {
		t.Fatalf("addresses %d, %d", a0, a1)
	}

	if err := v.Flush(); err == nil {
		t.Fatal("rejected flush reported success")
	}
	if c.Err() != nil {
		t.Fatalf("logical flush failure poisoned the client: %v", c.Err())
	}
	v.bufMu.Lock()
	retained, syncedLen := len(v.pending), v.serverLen
	v.bufMu.Unlock()
	if retained != 2 {
		t.Fatalf("failed flush dropped rows: %d pending, want 2", retained)
	}
	if syncedLen != 0 {
		t.Fatalf("serverLen = %d after resync, want 0", syncedLen)
	}
	// Addresses handed out before the failure are still the ones the
	// retry will materialise.
	if a2 := v.Add([]byte("ct2"), nil, nil); a2 != 2 {
		t.Fatalf("post-failure Add returned %d, want 2", a2)
	}

	if err := v.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	v.bufMu.Lock()
	retained, syncedLen = len(v.pending), v.serverLen
	v.bufMu.Unlock()
	if retained != 0 || syncedLen != 3 {
		t.Fatalf("after retry: pending=%d serverLen=%d, want 0/3", retained, syncedLen)
	}
	if serverRows != 3 {
		t.Fatalf("server applied %d rows, want 3", serverRows)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
}

// TestFlushPartialApplicationPoisons: if the resync after a rejected
// batch reveals the server applied part of it, the addresses Add handed
// out can no longer be honoured — the client must fail loudly instead of
// retrying the rows at shifted addresses.
func TestFlushPartialApplicationPoisons(t *testing.T) {
	c, ss := pipeClient(t)
	v := c.WithStore(DefaultStore)
	go func() {
		serverRows := 0
		for {
			req, err := ss.readRequest()
			if err != nil {
				return
			}
			resp := response{ID: req.ID}
			switch req.Op {
			case opHello:
				resp.Version = ProtocolVersion
			case opEncAddBatch:
				serverRows++ // applies ONE row, then rejects the batch
				resp.Err = "enc store: simulated mid-batch failure"
			case opEncLen:
				resp.N = serverRows
			}
			if err := ss.writeResponse(req.Op, &resp); err != nil {
				return
			}
		}
	}()

	v.Add([]byte("ct0"), nil, nil)
	v.Add([]byte("ct1"), nil, nil)
	if err := v.Flush(); err == nil {
		t.Fatal("partially applied flush reported success")
	}
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "partially applied") {
		t.Fatalf("Err = %v, want partial-application poison", c.Err())
	}
	if err := c.Ping(); err == nil {
		t.Fatal("client usable after address space corruption")
	}
}

// TestFlushRejectedByRealServer: the real Cloud rejects an upload batch
// containing an empty tuple ciphertext before applying any of it — the
// reachable logical-rejection case the client's retention/resync handles:
// the connection stays healthy, the rows stay buffered, and serverLen
// confirms nothing was applied.
func TestFlushRejectedByRealServer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { _ = NewCloud().Serve(lis) }()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	v := c.WithStore(DefaultStore)
	defer c.Close()

	if addr := v.Add([]byte("good"), nil, nil); addr != 0 {
		t.Fatalf("Add = %d", addr)
	}
	if addr := v.Add(nil, nil, nil); addr != 1 { // empty TupleCT: invalid row
		t.Fatalf("Add = %d", addr)
	}
	if err := v.Flush(); err == nil || !strings.Contains(err.Error(), "empty tuple ciphertext") {
		t.Fatalf("Flush = %v, want empty-ciphertext rejection", err)
	}
	if c.Err() != nil {
		t.Fatalf("logical rejection poisoned the client: %v", c.Err())
	}
	v.bufMu.Lock()
	retained, syncedLen := len(v.pending), v.serverLen
	v.bufMu.Unlock()
	if retained != 2 || syncedLen != 0 {
		t.Fatalf("after rejection: pending=%d serverLen=%d, want 2/0", retained, syncedLen)
	}
	// The batch was all-or-nothing: a second client sees an untouched
	// store — the good row was not applied either.
	c2, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := c2.WithStore(DefaultStore).Len(); n != 0 {
		t.Fatalf("server applied part of a rejected batch: Len = %d", n)
	}
}

// TestFlushTransportFailureRetainsPending: when the flush dies on the
// transport the rows are still retained (a reconnecting wrapper could
// resend them) and the client is poisoned.
func TestFlushTransportFailureRetainsPending(t *testing.T) {
	c, ss := pipeClient(t)
	v := c.WithStore(DefaultStore)
	// Serve the handshake and Add's first-use length sync, then vanish
	// before the flush.
	go func() {
		if !serveHello(ss) {
			return
		}
		req, err := ss.readRequest()
		if err != nil {
			return
		}
		_ = ss.writeResponse(req.Op, &response{ID: req.ID})
		_, _ = ss.readRequest()
		c.conn.Close()
	}()

	if addr := v.Add([]byte("ct0"), nil, nil); addr != 0 {
		t.Fatalf("Add = %d", addr)
	}
	if err := v.Flush(); err == nil {
		t.Fatal("flush over dead transport succeeded")
	}
	if c.Err() == nil {
		t.Fatal("transport flush failure not sticky")
	}
	v.bufMu.Lock()
	retained := len(v.pending)
	v.bufMu.Unlock()
	if retained != 1 {
		t.Fatalf("transport flush failure dropped rows: %d pending, want 1", retained)
	}
}

// TestServerClosesOnMalformedFrame: garbage on the wire must close the
// connection without the server attempting to encode a reply onto the
// desynchronised stream.
func TestServerClosesOnMalformedFrame(t *testing.T) {
	cl := NewCloud()
	cend, send := net.Pipe()
	srvDone := make(chan struct{})
	go func() { cl.ServeConn(send); close(srvDone) }()

	if _, err := cend.Write([]byte("\x13garbage that is not a frame")); err != nil {
		t.Fatal(err)
	}
	// The server must close the conn; the read observes EOF/closed rather
	// than an error response frame.
	buf := make([]byte, 64)
	n, err := cend.Read(buf)
	if err == nil {
		t.Fatalf("server wrote %d bytes onto a desynchronised stream: %q", n, buf[:n])
	}
	<-srvDone
}

// TestMuxConcurrentStress drives one multiplexed connection from many
// goroutines — readers fetching specific addresses and checking they get
// their own rows back, writers adding + flushing new rows, and a loader
// goroutine interleaving exclusive opPlainLoad — under -race. It is both the demux correctness check (a crossed response would
// return the wrong row) and the concurrency stress for the server's
// per-connection worker pool.
func TestMuxConcurrentStress(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	cl := NewCloud()
	cl.SetConnWorkers(4)
	go func() { _ = cl.Serve(lis) }()

	t.Run("single-conn", func(t *testing.T) { // the one arm left; its printed name is pinned
		c, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		b := c.WithStore(DefaultStore)

		// Seed rows whose payload encodes their address.
		rowCT := func(addr int) string { return fmt.Sprintf("ct-%04d", addr) }
		const seeded = 64
		base := b.Len()
		for i := 0; i < seeded; i++ {
			addr := b.Add([]byte(rowCT(base+i)), []byte("attr"), []byte(fmt.Sprintf("tok%d", i%8)))
			if addr != base+i {
				t.Fatalf("seed addr = %d, want %d", addr, base+i)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}

		rel := relation.New(relation.MustSchema("T",
			relation.Column{Name: "K", Kind: relation.KindInt},
		))
		for i := 0; i < 10; i++ {
			rel.MustInsert(relation.Int(int64(i)))
		}
		if err := b.Load(rel, "K"); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		fail := make(chan error, 64)
		report := func(format string, args ...any) {
			select {
			case fail <- fmt.Errorf(format, args...):
			default:
			}
		}

		// Readers: fetch a random seeded address, expect that row.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := mrand.New(mrand.NewPCG(uint64(g), 99))
				for i := 0; i < 60; i++ {
					addr := base + rng.IntN(seeded)
					rows, err := b.Fetch([]int{addr})
					if err != nil {
						report("fetch(%d): %v", addr, err)
						return
					}
					if len(rows) != 1 || string(rows[0].TupleCT) != rowCT(addr) {
						report("fetch(%d) returned %q — crossed responses", addr, rows[0].TupleCT)
						return
					}
					if got := b.Search([]relation.Value{relation.Int(int64(i % 10))}); len(got) != 1 {
						report("search mid-stress = %d tuples", len(got))
						return
					}
					_ = b.Len()
				}
			}(g)
		}
		// Writer: grow the store, then read each new row back.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				addr := b.Add([]byte("w"), nil, nil)
				if addr < base+seeded {
					report("writer addr %d collides with seeded range", addr)
					return
				}
				if err := b.Flush(); err != nil {
					report("writer flush: %v", err)
					return
				}
			}
		}()
		// Loader: interleave the exclusive opPlainLoad.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := b.Load(rel, "K"); err != nil {
					report("load: %v", err)
					return
				}
			}
		}()
		wg.Wait()
		close(fail)
		for err := range fail {
			t.Error(err)
		}
		if err := b.Err(); err != nil {
			t.Fatalf("sticky transport error after stress: %v", err)
		}
		if err := b.LogicalErr(); err != nil {
			t.Fatalf("logical error after stress: %v", err)
		}
	})
}
