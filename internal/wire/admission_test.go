package wire

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
)

// TestStoreAdmissionDisabledByDefault: ops on one namespace run under the
// connection bound alone; there is no per-namespace level to configure.
func TestStoreAdmissionDisabledByDefault(t *testing.T) {
	cl := NewCloud()
	srvConn, cliConn := net.Pipe()
	go cl.ServeConn(srvConn)
	c := NewClient(cliConn)
	defer c.Close()
	v := c.WithStore("tenant")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Len()
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreAdmissionUnderLoad drives two tenants with real concurrency
// through one connection whose execution bound (4) is below its callers
// (8); everything must complete and stay correct under -race.
func TestStoreAdmissionUnderLoad(t *testing.T) {
	cl := NewCloud()
	cl.connWorkers = 4
	srvConn, cliConn := net.Pipe()
	go cl.ServeConn(srvConn)
	c := NewClient(cliConn)
	defer c.Close()

	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	for i := 0; i < 50; i++ {
		rel.MustInsert(relation.Int(int64(i % 5)))
	}
	for _, name := range []string{"a", "b"} {
		if err := c.WithStore(name).Load(rel, "K"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := c.WithStore([]string{"a", "b"}[w%2])
			for i := 0; i < 20; i++ {
				if got := v.Search([]relation.Value{relation.Int(int64(i % 5))}); len(got) != 10 {
					t.Errorf("worker %d: Search = %d tuples, want 10", w, len(got))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestConnAdmissionBoundsFlood: a peer that streams requests and never
// reads a response must not grow the server by a goroutine per request.
// The decode loop takes an execution slot before it spawns an op, and the
// op holds it until its response is written, so the server parks at most
// connWorkers ops plus the connection's own goroutine and stops reading.
func TestConnAdmissionBoundsFlood(t *testing.T) {
	const workers, frames = 4, 1000
	cl := NewCloud()
	cl.connWorkers = workers
	srvConn, peer := net.Pipe()
	defer peer.Close()

	send := func(req *request) error {
		return finishFrame(peer, appendRequest(beginFrame(nil), req))
	}
	base := runtime.NumGoroutine()
	served := make(chan struct{})
	go func() {
		cl.ServeConn(srvConn)
		close(served)
	}()
	if err := send(&request{Op: opHello, ID: 1, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	if _, err := readFrame(bufio.NewReader(peer), &scratch); err != nil {
		t.Fatalf("hello response: %v", err)
	}

	// The flood: pings written from one goroutine, never a response read.
	var sent atomic.Int64
	go func() {
		for id := uint64(2); id < frames+2; id++ {
			if send(&request{Op: opPing, ID: id}) != nil {
				return
			}
			sent.Add(1)
		}
	}()
	// Wait until the server stops reading: the count of frames it took
	// stays put for a while (or the whole flood went in).
	for last, still := int64(-1), 0; still < 10 && sent.Load() < frames; {
		time.Sleep(20 * time.Millisecond)
		if n := sent.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	// ServeConn and the flooding peer, plus a little slack for runtime
	// goroutines, on top of the parked ops.
	if grown, limit := runtime.NumGoroutine()-base, workers+4; grown > limit {
		t.Fatalf("a peer that reads no responses grew the server by %d goroutines after %d of %d frames, want <= %d",
			grown, sent.Load(), frames, limit)
	}
	if n := sent.Load(); n >= frames {
		t.Fatalf("the server read all %d frames from a peer that reads no responses", n)
	}

	peer.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after the peer closed")
	}
}
