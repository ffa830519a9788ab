package wire

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

// TestReconnectPoolSurvivesOneConnKillMidBatch is the acceptance property
// for composing pools with reconnecting transports: a pool of
// Reconnectors is driven by concurrent readers and writers while ONE
// pooled connection is killed mid-traffic (twice). Every op must succeed
// — the victim's ops block through its reconnect cycle and replay, the
// rest of the pool never notices — and the final store contents equal
// what an untouched run would produce.
func TestReconnectPoolSurvivesOneConnKillMidBatch(t *testing.T) {
	cl := NewCloud()
	srv := newChaosServer(t, cl)

	conns := make([]*Reconnector, 3)
	for i := range conns {
		conns[i] = reconnectorFor(t, srv)
	}
	p := NewPool(conns)
	if p.Size() != 3 || p.Alive() != 3 {
		t.Fatalf("pool size/alive = %d/%d", p.Size(), p.Alive())
	}

	// Two namespaces with distinct home connections, each loaded and
	// seeded — the shape the owner-side technique drives.
	a := p.WithStore("tenant-a")
	b := p.WithStore("tenant-b")
	for _, v := range []*StoreClient{a, b} {
		if err := v.Load(testRelation(25), "K"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if addr := v.Add([]byte{byte(i)}, nil, []byte("tok")); addr != i {
				t.Fatalf("%s: seed addr %d != %d", v.StoreName(), addr, i)
			}
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := a
			if w%2 == 1 {
				v = b
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := v.Search([]relation.Value{relation.Int(int64(w % 5))}); got == nil {
					errCh <- fmt.Errorf("worker %d: Search nil (iter %d): logical=%v", w, i, v.LogicalErr())
					return
				}
				rows, err := v.Fetch([]int{w % 8})
				if err != nil || len(rows) != 1 {
					errCh <- fmt.Errorf("worker %d: Fetch (iter %d): %v %v", w, i, rows, err)
					return
				}
				if got := v.LookupToken([]byte("tok")); len(got) < 8 {
					errCh <- fmt.Errorf("worker %d: token index shrank to %d (iter %d)", w, len(got), i)
					return
				}
			}
		}(w)
	}
	// Writer appends through tenant-a's home while connections die.
	wg.Add(1)
	appended := 0
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if addr := a.Add([]byte("w"), nil, nil); addr != 8+appended {
				errCh <- fmt.Errorf("writer: addr %d, want %d", addr, 8+appended)
				return
			}
			if err := a.Flush(); err != nil {
				errCh <- fmt.Errorf("writer flush: %w", err)
				return
			}
			appended++
			time.Sleep(time.Millisecond)
		}
	}()

	for k := 0; k < 2; k++ {
		time.Sleep(25 * time.Millisecond)
		killCurrent(conns[(k+1)%len(conns)]) // exactly one member; the others keep their transports
	}
	time.Sleep(25 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// All members recovered: the pool reports full capacity and the data
	// is intact and consistent from every connection.
	if got := p.Alive(); got != 3 {
		t.Fatalf("Alive = %d after reconnects, want 3", got)
	}
	for i := 0; i < 2*p.Size(); i++ {
		if n := a.Len(); n != 8+appended {
			t.Fatalf("tenant-a Len read %d = %d, want %d", i, n, 8+appended)
		}
		if n := b.Len(); n != 8 {
			t.Fatalf("tenant-b Len read %d = %d, want 8", i, n)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatalf("pool Err after recovery: %v", err)
	}
}

// TestDialReconnectPool: the production constructor composes n
// reconnecting members, fails fast on an unreachable address, and the
// pooled members reconnect independently after a full server restart.
func TestDialReconnectPool(t *testing.T) {
	dial := func(addr string) func() (*Reconnector, error) {
		return func() (*Reconnector, error) { return DialReconnect(addr, fastOpts) }
	}
	if _, err := DialPool(2, dial("127.0.0.1:1")); err == nil {
		t.Fatal("DialReconnectPool to unreachable addr succeeded")
	}

	cl := NewCloud()
	srv := newChaosServer(t, cl)
	p, err := DialPool(2, dial(srv.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	v := p.WithStore(DefaultStore)
	if err := v.Load(testRelation(10), "K"); err != nil {
		t.Fatal(err)
	}
	if addr := v.Add([]byte("ct"), nil, nil); addr != 0 {
		t.Fatalf("Add = %d", addr)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill everything; the same cloud comes back. Every member redials.
	srv.kill()
	srv.restart(t, cl)
	if got := v.Search([]relation.Value{relation.Int(1)}); got == nil {
		t.Fatalf("Search after restart = nil: %v / %v", v.LogicalErr(), p.Err())
	}
	if n := v.Len(); n != 1 {
		t.Fatalf("Len after restart = %d", n)
	}
	if got := p.Alive(); got != 2 {
		t.Fatalf("Alive after restart = %d", got)
	}
}
