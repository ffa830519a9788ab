package repro

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startRemoteCloud runs a qbcloud-equivalent on a loopback listener.
func startRemoteCloud(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = wire.NewCloud().Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	return lis.Addr().String()
}

// TestClientAgainstRemoteCloud runs the public API against a cloud in a
// separate (simulated) process over TCP.
func TestClientAgainstRemoteCloud(t *testing.T) {
	addr := startRemoteCloud(t)
	for _, tech := range []Technique{TechNoInd, TechDetIndex, TechArx} {
		t.Run(tech.String(), func(t *testing.T) {
			c, err := NewClient(Config{
				MasterKey: []byte("remote test"),
				Attr:      "EId",
				Technique: tech,
				Seed:      seed(77),
				CloudAddr: startRemoteCloud(t), // fresh cloud per technique
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			emp := workload.Employee()
			if err := c.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
				t.Fatal(err)
			}
			for _, eid := range []string{"E101", "E259", "E199"} {
				got, err := c.Query(Str(eid))
				if err != nil {
					t.Fatal(err)
				}
				want, _ := emp.Select("EId", Str(eid))
				if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
					t.Errorf("Query(%s) = %v, want %v", eid, relation.IDs(got), relation.IDs(want))
				}
			}
		})
	}
	_ = addr
}

// TestRemoteVerticalClientMatchesInProcess is the vertical-client
// equivalence property over the wire: a vertical client whose two
// differently keyed sub-clients share one qbcloud (via the namespaced
// store registry — residual rows in one store, sensitive columns in its
// "/columns" sibling) must return exactly the tuples and log exactly the
// adversarial views of the in-process vertical client, across the
// store-backed technique matrix. (The "/conns=1" in the subtest names says
// what every client has: one connection.)
func TestRemoteVerticalClientMatchesInProcess(t *testing.T) {
	for _, tech := range []Technique{TechNoInd, TechDetIndex, TechArx} {
		t.Run(tech.String()+"/conns=1", func(t *testing.T) {
			mk := func(addr string) *VerticalClient {
				c, err := NewVerticalClient(Config{
					MasterKey: []byte("vertical remote equivalence"),
					Attr:      "EId",
					Technique: tech,
					Seed:      seed(41),
					CloudAddr: addr, // "" = in-process
				}, []string{"SSN", "Dept"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			local, remote := mk(""), mk(startRemoteCloud(t))
			emp := workload.Employee()
			if err := local.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
				t.Fatal(err)
			}
			if err := remote.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
				t.Fatal(err)
			}
			for _, eid := range []string{"E101", "E259", "E199", "E152", "E000"} {
				want, err := local.Query(Str(eid))
				if err != nil {
					t.Fatalf("local Query(%s): %v", eid, err)
				}
				got, err := remote.Query(Str(eid))
				if err != nil {
					t.Fatalf("remote Query(%s): %v", eid, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Query(%s) over wire = %v, want %v", eid, got, want)
				}
				// Full original schema reassembled, sensitive columns
				// included.
				for _, tp := range got {
					if len(tp.Values) != 6 {
						t.Errorf("tuple %d has %d columns, want 6", tp.ID, len(tp.Values))
					}
				}
			}
			lv, rv := local.AdversarialViews(), remote.AdversarialViews()
			if len(lv) != len(rv) {
				t.Fatalf("view counts differ: local %d, remote %d", len(lv), len(rv))
			}
			for i := range lv {
				if viewKey(lv[i]) != viewKey(rv[i]) {
					t.Errorf("view %d: remote %s != local %s", i, viewKey(rv[i]), viewKey(lv[i]))
				}
			}
		})
	}
}

// TestRemoteVerticalNamespaces: the two sub-clients really live in two
// cloud-side namespaces (main + "/columns"), so their differently keyed
// ciphertexts never share a store.
func TestRemoteVerticalNamespaces(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := wire.NewCloud()
	go func() { _ = cl.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })

	c, err := NewVerticalClient(Config{
		MasterKey: []byte("k"), Attr: "EId", Seed: seed(3),
		CloudAddr: lis.Addr().String(), Store: "emp",
	}, []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Outsource(workload.Employee(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	names := cl.StoreNames()
	if !reflect.DeepEqual(names, []string{"emp", "emp/columns"}) {
		t.Fatalf("cloud namespaces = %v, want [emp emp/columns]", names)
	}
	stats := cl.Stats()
	if stats["emp"].EncRows == 0 || stats["emp/columns"].EncRows == 0 {
		t.Fatalf("both namespaces should hold encrypted rows: %+v", stats)
	}
	if stats["emp/columns"].PlainTuples != 0 {
		t.Fatal("columns namespace must never hold clear-text tuples")
	}
}

// TestTwoTenantsShareOneCloud: two clients with different Config.Store
// values outsource different relations through one qbcloud and stay
// fully isolated at the public API level.
func TestTwoTenantsShareOneCloud(t *testing.T) {
	addr := startRemoteCloud(t)
	mk := func(store string, seedV uint64) *Client {
		c, err := NewClient(Config{
			MasterKey: []byte("tenant " + store),
			Attr:      "EId",
			Seed:      seed(seedV),
			CloudAddr: addr,
			Store:     store,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := mk("tenant-a", 10), mk("tenant-b", 11)

	emp := workload.Employee()
	if err := a.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	// Tenant B outsources a disjoint subset (everything sensitive), so a
	// cross-tenant leak would be visible as extra rows.
	empB := workload.Employee()
	if err := b.Outsource(empB.Clone(), func(Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}

	for _, eid := range []string{"E101", "E259", "E199"} {
		want, _ := emp.Select("EId", Str(eid))
		gotA, err := a.Query(Str(eid))
		if err != nil {
			t.Fatalf("tenant-a Query(%s): %v", eid, err)
		}
		if !reflect.DeepEqual(relation.IDs(gotA), relation.IDs(want)) {
			t.Errorf("tenant-a Query(%s) = %v, want %v", eid, relation.IDs(gotA), relation.IDs(want))
		}
		gotB, err := b.Query(Str(eid))
		if err != nil {
			t.Fatalf("tenant-b Query(%s): %v", eid, err)
		}
		if !reflect.DeepEqual(relation.IDs(gotB), relation.IDs(want)) {
			t.Errorf("tenant-b Query(%s) = %v, want %v", eid, relation.IDs(gotB), relation.IDs(want))
		}
	}
}

// TestReservedColumnsNamespace: a regular client cannot claim some
// vertical client's "/columns" sibling — that would interleave
// differently keyed ciphertexts in one store.
func TestReservedColumnsNamespace(t *testing.T) {
	addr := startRemoteCloud(t)
	if _, err := NewClient(Config{
		MasterKey: []byte("k"), Attr: "EId", CloudAddr: addr, Store: "emp/columns",
	}); err == nil {
		t.Fatal("reserved /columns namespace accepted by NewClient")
	}
	if _, err := NewVerticalClient(Config{
		MasterKey: []byte("k"), Attr: "EId", CloudAddr: addr, Store: "emp/columns",
	}, []string{"SSN"}); err == nil {
		t.Fatal("reserved /columns namespace accepted by NewVerticalClient")
	}
}

func TestRemoteCloudRejectsScanTechniques(t *testing.T) {
	addr := startRemoteCloud(t)
	for _, tech := range []Technique{TechShamir, TechDPFPIR, TechSimOpaque} {
		if _, err := NewClient(Config{
			MasterKey: []byte("k"), Attr: "K", Technique: tech, CloudAddr: addr,
		}); err == nil {
			t.Errorf("technique %v accepted a remote cloud", tech)
		}
	}
}

// TestSaveResumeOverRemoteCloud persists the owner state and resumes a new
// client against the same remote cloud without re-outsourcing.
func TestSaveResumeOverRemoteCloud(t *testing.T) {
	addr := startRemoteCloud(t)
	mk := func() *Client {
		c, err := NewClient(Config{
			MasterKey: []byte("resume test"),
			Attr:      "EId",
			Seed:      seed(88),
			CloudAddr: addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	emp := workload.Employee()
	c1 := mk()
	if err := c1.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c1.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}

	c2 := mk()
	if err := c2.Resume(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Query(Str("E259"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := emp.Select("EId", Str("E259"))
	if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
		t.Errorf("resumed Query = %v, want %v", relation.IDs(got), relation.IDs(want))
	}

	// Resume without a remote cloud is rejected.
	local, err := NewClient(Config{MasterKey: []byte("k"), Attr: "EId"})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Resume(&buf); err == nil {
		t.Error("local Resume accepted")
	}
}

// TestRemoteQueryBatchMatchesSequential is the observational-equivalence
// property test against the remote backend: with the multiplexed wire
// client underneath, QueryBatch must return the same per-query answers
// and log the same adversarial views, in the same order, as a sequential
// Query loop — exactly as it does against the in-process cloud.
func TestRemoteQueryBatchMatchesSequential(t *testing.T) {
	for _, tech := range []Technique{TechNoInd, TechArx} {
		t.Run(tech.String()+"/conns=1", func(t *testing.T) {
			ds, err := workload.Generate(workload.GenSpec{
				Tuples: 160, DistinctValues: 16, Alpha: 0.4,
				AssocFraction: 0.5, Seed: 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewClient(Config{
				MasterKey: []byte("remote batch equivalence"),
				Attr:      workload.Attr,
				Technique: tech,
				Seed:      seed(29),
				CloudAddr: startRemoteCloud(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
				t.Fatal(err)
			}
			ws := batchWorkload(ds, 12, 321)

			seq := make([][]Tuple, len(ws))
			for i, w := range ws {
				got, err := c.Query(w)
				if err != nil {
					t.Fatalf("sequential Query(%v): %v", w, err)
				}
				seq[i] = got
			}
			seqViews := c.AdversarialViews()
			if len(seqViews) != len(ws) {
				t.Fatalf("sequential run recorded %d views, want %d", len(seqViews), len(ws))
			}

			batch, err := c.QueryBatch(ws)
			if err != nil {
				t.Fatalf("QueryBatch: %v", err)
			}
			views := c.AdversarialViews()
			if len(views) != 2*len(ws) {
				t.Fatalf("after batch: %d views, want %d", len(views), 2*len(ws))
			}
			batchViews := views[len(ws):]
			for i := range ws {
				if !reflect.DeepEqual(relation.IDs(seq[i]), relation.IDs(batch[i])) {
					t.Errorf("query %d (%v): batch IDs %v != sequential %v",
						i, ws[i], relation.IDs(batch[i]), relation.IDs(seq[i]))
				}
				if viewKey(batchViews[i]) != viewKey(seqViews[i]) {
					t.Errorf("query %d (%v): batch view %s != sequential view %s",
						i, ws[i], viewKey(batchViews[i]), viewKey(seqViews[i]))
				}
			}
		})
	}
}

// TestRemoteQueryAsync smoke-tests the streaming batch against a remote
// cloud: every answer matches the sequential one and no transport error
// sticks.
func TestRemoteQueryAsync(t *testing.T) {
	c, err := NewClient(Config{
		MasterKey: []byte("remote async"),
		Attr:      "EId",
		Seed:      seed(5),
		CloudAddr: startRemoteCloud(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	emp := workload.Employee()
	if err := c.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	ws := []Value{Str("E101"), Str("E259"), Str("E199"), Str("E152"), Str("E000")}
	for res := range c.QueryAsync(ws) {
		if res.Err != nil {
			t.Fatalf("query %d: %v", res.Index, res.Err)
		}
		want, _ := emp.Select("EId", ws[res.Index])
		if !reflect.DeepEqual(relation.IDs(res.Tuples), relation.IDs(want)) {
			t.Errorf("query %d = %v, want %v", res.Index, relation.IDs(res.Tuples), relation.IDs(want))
		}
	}
}

// TestRemoteQueryAfterConnectionLost: once the transport to the cloud is
// gone, queries must return an error — not silently empty results — even
// though the backend's void interface methods cannot return errors
// in-band.
func TestRemoteQueryAfterConnectionLost(t *testing.T) {
	c, err := NewClient(Config{
		MasterKey: []byte("remote severed"),
		Attr:      "EId",
		Seed:      seed(61),
		CloudAddr: startRemoteCloud(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	emp := workload.Employee()
	if err := c.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(Str("E101")); err != nil {
		t.Fatalf("query before severing: %v", err)
	}

	// Sever the transport (an explicit Close stands in for a crashed
	// qbcloud; either way the connection is unusable).
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Query(Str("E101")); err == nil {
		t.Fatalf("query over severed connection returned %v with nil error", got)
	}
	if _, err := c.QueryBatch([]Value{Str("E101"), Str("E259")}); err == nil {
		t.Fatal("batch over severed connection reported success")
	}
	for res := range c.QueryAsync([]Value{Str("E101")}) {
		if res.Err == nil {
			t.Fatal("async result over severed connection carried no error")
		}
	}
	// Writes fail too: nothing pending must not read as durable success.
	if err := c.Insert(Tuple{ID: 1, Values: []Value{
		Str("E900"), Str("X"), Str("Y"), Int(1), Int(1), Str("Design"),
	}}, true); err == nil {
		t.Fatal("insert over severed connection reported success")
	}
}

// TestRemoteCloudUnreachable: a misconfigured address fails at
// construction — also with Reconnect, whose first dial is eager.
func TestRemoteCloudUnreachable(t *testing.T) {
	for _, reconnect := range []bool{false, true} {
		if _, err := NewClient(Config{
			MasterKey: []byte("k"), Attr: "K", CloudAddr: "127.0.0.1:1", Reconnect: reconnect,
		}); err == nil {
			t.Fatalf("unreachable cloud accepted (Reconnect=%v)", reconnect)
		}
	}
}

// chaosCloud hosts a wire.Cloud on a fixed loopback address and can kill
// the listener plus every live connection, then restart a (restored)
// cloud on the same address — a qbcloud crash and recovery, in-process.
type chaosCloud struct {
	addr  string
	mu    sync.Mutex
	lis   net.Listener
	conns []net.Conn
}

func startChaosCloud(t *testing.T, cl *wire.Cloud) *chaosCloud {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &chaosCloud{addr: lis.Addr().String()}
	s.serve(cl, lis)
	t.Cleanup(s.kill)
	return s
}

func (s *chaosCloud) serve(cl *wire.Cloud, lis net.Listener) {
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

func (s *chaosCloud) kill() {
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

func (s *chaosCloud) restart(t *testing.T, cl *wire.Cloud) {
	t.Helper()
	lis, err := net.Listen("tcp", s.addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", s.addr, err)
	}
	s.serve(cl, lis)
}

// TestReconnectClientSurvivesCloudKillMidBatch is the crash/recovery
// acceptance property: a Config.Reconnect client whose cloud is killed in
// the middle of a QueryBatch — and restarted from the snapshot taken
// after Outsource — must produce batch results AND adversarial views
// identical to a client whose cloud was never touched. The reconnect is
// invisible at the observational-equivalence level the whole test suite
// is built on.
func TestReconnectClientSurvivesCloudKillMidBatch(t *testing.T) {
	for _, tech := range []Technique{TechNoInd, TechArx} {
		t.Run(tech.String(), func(t *testing.T) {
			ds, err := workload.Generate(workload.GenSpec{
				Tuples: 160, DistinctValues: 16, Alpha: 0.4,
				AssocFraction: 0.5, Seed: 23,
			})
			if err != nil {
				t.Fatal(err)
			}
			mk := func(addr string, reconnect bool) *Client {
				c, err := NewClient(Config{
					MasterKey: []byte("chaos equivalence"),
					Attr:      workload.Attr,
					Technique: tech,
					Seed:      seed(31),
					CloudAddr: addr,
					Reconnect: reconnect,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			// Reference: identical client, never-killed cloud.
			ref := mk(startRemoteCloud(t), false)
			// Chaos: reconnect-enabled client on a killable cloud.
			cloud := wire.NewCloud()
			srv := startChaosCloud(t, cloud)
			chaos := mk(srv.addr, true)

			if err := ref.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
				t.Fatal(err)
			}
			if err := chaos.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
				t.Fatal(err)
			}
			// The operator's last snapshot: everything outsourced so far.
			var snap bytes.Buffer
			if err := cloud.Save(&snap); err != nil {
				t.Fatal(err)
			}

			ws := batchWorkload(ds, 48, 97)
			want, err := ref.QueryBatch(ws)
			if err != nil {
				t.Fatal(err)
			}

			// Kill the cloud while the batch is in flight and bring a
			// restored one back on the same address.
			killed := make(chan struct{})
			go func() {
				defer close(killed)
				time.Sleep(2 * time.Millisecond)
				srv.kill()
				restored := wire.NewCloud()
				if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
					t.Error(err)
					return
				}
				srv.restart(t, restored)
			}()
			got, err := chaos.QueryBatch(ws)
			<-killed
			if err != nil {
				t.Fatalf("QueryBatch across the kill: %v", err)
			}
			for i := range ws {
				if !reflect.DeepEqual(relation.IDs(got[i]), relation.IDs(want[i])) {
					t.Errorf("query %d (%v): chaos IDs %v != reference %v",
						i, ws[i], relation.IDs(got[i]), relation.IDs(want[i]))
				}
			}
			gv, wv := chaos.AdversarialViews(), ref.AdversarialViews()
			if len(gv) != len(wv) {
				t.Fatalf("view counts differ: chaos %d, reference %d", len(gv), len(wv))
			}
			for i := range gv {
				if viewKey(gv[i]) != viewKey(wv[i]) {
					t.Errorf("view %d: chaos %s != reference %s", i, viewKey(gv[i]), viewKey(wv[i]))
				}
			}

			// And the client keeps working after the dust settles.
			w := ws[0]
			gotQ, err := chaos.Query(w)
			if err != nil {
				t.Fatal(err)
			}
			wantQ, err := ref.Query(w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(relation.IDs(gotQ), relation.IDs(wantQ)) {
				t.Errorf("post-recovery Query = %v, want %v", relation.IDs(gotQ), relation.IDs(wantQ))
			}
		})
	}
}
