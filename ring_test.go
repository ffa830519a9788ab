package repro

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ringCluster is an in-process multi-node ring: n killable qbcloud
// equivalents (chaosCloud reuses the kill-listener-and-conns machinery
// from the reconnect tests), a coordinator over them, and the
// coordinator's directory served over the wire like qbring does.
type ringCluster struct {
	tok    []byte
	nodes  []*chaosCloud
	co     *ring.Coordinator
	coAddr string
}

func startRingCluster(t *testing.T, n, replicas int) *ringCluster {
	t.Helper()
	rc := &ringCluster{tok: []byte("root ring secret")}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cl := wire.NewCloud()
		cl.SetRingToken(rc.tok)
		srv := startChaosCloud(t, cl)
		rc.nodes = append(rc.nodes, srv)
		addrs[i] = srv.addr
	}
	co, err := ring.New(ring.Config{
		Nodes: addrs, Replicas: replicas, RingToken: rc.tok, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.co = co
	t.Cleanup(co.Stop)
	dirCloud := wire.NewCloud()
	dirCloud.SetRingDirectory(co.DirectoryBlob)
	dirCloud.SetRingRepair(func(ns string) error {
		co.RepairNamespace(ns)
		return nil
	})
	rc.coAddr = startChaosCloud(t, dirCloud).addr
	return rc
}

// replicasFor maps a namespace's placement (primary first) back to the
// killable node handles.
func (rc *ringCluster) replicasFor(t *testing.T, ns string) []*chaosCloud {
	t.Helper()
	placement := ring.Build(rc.co.Directory()).Placement(ns)
	out := make([]*chaosCloud, 0, len(placement))
	for _, n := range placement {
		for _, srv := range rc.nodes {
			if srv.addr == n.Addr {
				out = append(out, srv)
			}
		}
	}
	if len(out) != len(placement) {
		t.Fatalf("placement %v not covered by cluster nodes", placement)
	}
	return out
}

// restartEmpty brings a killed node back EMPTY on its old address — a
// machine replaced after losing its disk.
func (rc *ringCluster) restartEmpty(t *testing.T, srv *chaosCloud) {
	t.Helper()
	cl := wire.NewCloud()
	cl.SetRingToken(rc.tok)
	srv.restart(t, cl)
}

func storeInfoAt(t *testing.T, addr, ns string) wire.StoreInfo {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	info, err := c.StoreInfo(ns)
	if err != nil {
		t.Fatalf("StoreInfo(%s) on %s: %v", ns, addr, err)
	}
	return info
}

// TestRingClientMatchesInProcess is the replicated flavour of the
// observational-equivalence property the whole suite is built on: a
// client routed through a 3-node R=2 ring must return exactly the tuples
// AND log exactly the adversarial views of the in-process client.
// Replication multiplies where ciphertexts live, but it must not widen
// what any single adversary observes.
func TestRingClientMatchesInProcess(t *testing.T) {
	for _, tech := range []Technique{TechNoInd, TechDetIndex, TechArx} {
		t.Run(tech.String(), func(t *testing.T) {
			rc := startRingCluster(t, 3, 2)
			ds, err := workload.Generate(workload.GenSpec{
				Tuples: 160, DistinctValues: 16, Alpha: 0.4,
				AssocFraction: 0.5, Seed: 43,
			})
			if err != nil {
				t.Fatal(err)
			}
			mk := func(ringAddr string) *Client {
				c, err := NewClient(Config{
					MasterKey: []byte("ring equivalence"),
					Attr:      workload.Attr,
					Technique: tech,
					Seed:      seed(53),
					Ring:      ringAddr, // "" = in-process
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			local, ringed := mk(""), mk(rc.coAddr)
			if err := local.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
				t.Fatal(err)
			}
			if err := ringed.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
				t.Fatal(err)
			}
			for _, w := range batchWorkload(ds, 16, 207) {
				want, err := local.Query(w)
				if err != nil {
					t.Fatalf("local Query(%v): %v", w, err)
				}
				got, err := ringed.Query(w)
				if err != nil {
					t.Fatalf("ring Query(%v): %v", w, err)
				}
				if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
					t.Errorf("Query(%v) via ring = %v, want %v", w, relation.IDs(got), relation.IDs(want))
				}
			}
			// Ranges reach the cloud as searches of their covering bins, so
			// they need no range op on the wire: inside one bin, across bins,
			// reversed bounds, no value at all, and the whole domain (values
			// are 0..15).
			for _, r := range [][2]int64{{7, 7}, {3, 11}, {11, 3}, {1000, 2000}, {0, 15}} {
				lo, hi := Int(r[0]), Int(r[1])
				want, err := local.QueryRange(lo, hi)
				if err != nil {
					t.Fatalf("local QueryRange(%v, %v): %v", lo, hi, err)
				}
				if r == [2]int64{0, 15} && len(want) != ds.Relation.Len() {
					t.Fatalf("whole-domain range returned %d of %d tuples", len(want), ds.Relation.Len())
				}
				got, err := ringed.QueryRange(lo, hi)
				if err != nil {
					t.Fatalf("ring QueryRange(%v, %v): %v", lo, hi, err)
				}
				if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
					t.Errorf("QueryRange(%v, %v) via ring = %v, want %v", lo, hi, relation.IDs(got), relation.IDs(want))
				}
			}
			lv, rv := local.AdversarialViews(), ringed.AdversarialViews()
			if len(lv) != len(rv) {
				t.Fatalf("view counts differ: local %d, ring %d", len(lv), len(rv))
			}
			for i := range lv {
				if viewKey(lv[i]) != viewKey(rv[i]) {
					t.Errorf("view %d: ring %s != local %s", i, viewKey(rv[i]), viewKey(lv[i]))
				}
			}
			// The namespace really is replicated: both placement replicas hold
			// identical row counts, the off-placement node holds nothing.
			replicated := map[string]bool{}
			for _, srv := range rc.replicasFor(t, wire.DefaultStore) {
				replicated[srv.addr] = true
			}
			var want wire.StoreInfo
			for addr := range replicated {
				info := storeInfoAt(t, addr, wire.DefaultStore)
				if !info.Exists {
					t.Fatalf("placement replica %s does not hold the namespace", addr)
				}
				if want.Exists && (info.EncRows != want.EncRows || info.PlainTuples != want.PlainTuples) {
					t.Fatalf("replicas diverge: %+v vs %+v", info, want)
				}
				want = info
			}
			for _, srv := range rc.nodes {
				if !replicated[srv.addr] {
					if info := storeInfoAt(t, srv.addr, wire.DefaultStore); info.Exists {
						t.Fatalf("off-placement node %s holds the namespace: %+v", srv.addr, info)
					}
				}
			}
		})
	}
}

// TestRingClientSurvivesNodeKillAndRejoin is the ISSUE's exit criterion,
// in-process: kill 1 of 3 nodes mid-workload — queries keep answering
// with results and adversarial views identical to an untouched in-process
// client — then rejoin the node EMPTY on the same address and watch
// anti-entropy rebuild it and the write path readmit it.
func TestRingClientSurvivesNodeKillAndRejoin(t *testing.T) {
	rc := startRingCluster(t, 3, 2)
	mk := func(ringAddr string) *Client {
		c, err := NewClient(Config{
			MasterKey: []byte("ring chaos"),
			Attr:      "EId",
			Technique: TechNoInd,
			Seed:      seed(59),
			Ring:      ringAddr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	ref, ringed := mk(""), mk(rc.coAddr)
	emp := workload.Employee()
	if err := ref.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	if err := ringed.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}

	eids := []string{"E101", "E259", "E199", "E152", "E000"}
	checkParity := func(phase string) {
		t.Helper()
		for _, eid := range eids {
			want, err := ref.Query(Str(eid))
			if err != nil {
				t.Fatalf("%s: reference Query(%s): %v", phase, eid, err)
			}
			got, err := ringed.Query(Str(eid))
			if err != nil {
				t.Fatalf("%s: ring Query(%s): %v", phase, eid, err)
			}
			if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
				t.Errorf("%s: Query(%s) = %v, want %v", phase, eid, relation.IDs(got), relation.IDs(want))
			}
		}
	}
	checkParity("healthy")

	// Kill the PRIMARY replica mid-workload. The store's reads fail over
	// to the surviving replica; nothing surfaces to the owner.
	replicas := rc.replicasFor(t, wire.DefaultStore)
	primary, survivor := replicas[0], replicas[1]
	t.Logf("killing primary replica %s", primary.addr)
	primary.kill()
	checkParity("degraded")

	// The node rejoins empty on its old address; one anti-entropy sweep
	// rebuilds the namespace from the survivor via snapshot transfer.
	rc.restartEmpty(t, primary)
	if st := rc.co.RepairOnce(); st.Snapshots == 0 {
		t.Fatalf("rejoin sweep stats = %+v, want a snapshot transfer", st)
	}
	srcInfo := storeInfoAt(t, survivor.addr, wire.DefaultStore)
	gotInfo := storeInfoAt(t, primary.addr, wire.DefaultStore)
	if !gotInfo.Exists || gotInfo.EncRows != srcInfo.EncRows || gotInfo.PlainTuples != srcInfo.PlainTuples {
		t.Fatalf("rejoined replica %+v != survivor %+v", gotInfo, srcInfo)
	}
	checkParity("rejoined")

	// Let the router's down-cooldown lapse, then write through the ring:
	// the repaired replica takes the write again (readmission), and both
	// replicas advance in lockstep.
	time.Sleep(600 * time.Millisecond)
	tp := Tuple{ID: 900, Values: []Value{
		Str("E900"), Str("Riley"), Str("900-00-0000"), Int(64), Int(88), Str("Design"),
	}}
	if err := ref.Insert(tp, true); err != nil {
		t.Fatal(err)
	}
	if err := ringed.Insert(tp, true); err != nil {
		t.Fatalf("ring insert after rejoin: %v", err)
	}
	for _, eid := range []string{"E900", "E101"} {
		want, err := ref.Query(Str(eid))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ringed.Query(Str(eid))
		if err != nil {
			t.Fatalf("post-insert ring Query(%s): %v", eid, err)
		}
		if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
			t.Errorf("post-insert Query(%s) = %v, want %v", eid, relation.IDs(got), relation.IDs(want))
		}
	}
	after := storeInfoAt(t, primary.addr, wire.DefaultStore)
	afterSrc := storeInfoAt(t, survivor.addr, wire.DefaultStore)
	if after.EncRows != afterSrc.EncRows || after.EncRows <= srcInfo.EncRows {
		t.Fatalf("write after readmission: rejoined %+v vs survivor %+v (pre-insert %d rows)",
			after, afterSrc, srcInfo.EncRows)
	}

	// Full-history adversarial-view equivalence across the whole story:
	// outsource, healthy reads, failover reads, rejoin reads, insert.
	rv, wv := ringed.AdversarialViews(), ref.AdversarialViews()
	if len(rv) != len(wv) {
		t.Fatalf("view counts differ: ring %d, reference %d", len(rv), len(wv))
	}
	for i := range rv {
		if viewKey(rv[i]) != viewKey(wv[i]) {
			t.Errorf("view %d: ring %s != reference %s", i, viewKey(rv[i]), viewKey(wv[i]))
		}
	}
}

// TestRingConfigValidation: Ring and CloudAddr are mutually exclusive,
// and ring mode enforces the same store-name hygiene as direct mode.
func TestRingConfigValidation(t *testing.T) {
	if _, err := NewClient(Config{
		MasterKey: []byte("k"), Attr: "K",
		Ring: "127.0.0.1:1", CloudAddr: "127.0.0.1:2",
	}); err == nil {
		t.Fatal("Ring+CloudAddr accepted")
	}
	if _, err := NewClient(Config{
		MasterKey: []byte("k"), Attr: "K",
		Ring: "127.0.0.1:1", Store: "emp/columns",
	}); err == nil {
		t.Fatal("reserved store name accepted in ring mode")
	}
	if _, err := NewClient(Config{
		MasterKey: []byte("k"), Attr: "K", Ring: "127.0.0.1:1",
	}); err == nil {
		t.Fatal("unreachable coordinator accepted")
	}
}
