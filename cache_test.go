package repro

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// empTuple builds an Employee-schema tuple with the given ID and EId.
func empTuple(id int, eid string) Tuple {
	return Tuple{ID: id, Values: []Value{
		Str(eid), Str("N"), Str("A"), Int(30), Int(50_000), Str("Design"),
	}}
}

// TestCachedQueriesMatchUncached is the observational-equivalence
// property of the owner-side version cache: two identically keyed and
// seeded clients — one caching (the remote default), one with
// Config.DisableCache — run the same interleaved query/insert workload
// against their own clouds and must return identical tuples and log
// identical adversarial views (same plaintext values, same returned
// tuples and addresses). Inserts land on both sides of the partition:
// sensitive ones, a non-sensitive one of a value never seen (a re-binning)
// and non-sensitive ones into the bin just queried and into another bin.
// The cached cloud meanwhile serves strictly fewer ops and sends strictly
// fewer bytes: the server-observed access sequence of the cached run is a
// subset of the uncached one, never a superset.
func TestCachedQueriesMatchUncached(t *testing.T) {
	for _, tech := range []Technique{TechNoInd, TechDetIndex} {
		t.Run(tech.String(), func(t *testing.T) {
			mk := func(disable bool) (*Client, *wire.Cloud, *chaosCloud) {
				cl := wire.NewCloud()
				srv := startChaosCloud(t, cl)
				c, err := NewClient(Config{
					MasterKey:    []byte("cache equivalence"),
					Attr:         "EId",
					Technique:    tech,
					Seed:         seed(53),
					CloudAddr:    srv.addr,
					DisableCache: disable,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c, cl, srv
			}
			cached, cachedCloud, cachedSrv := mk(false)
			plain, plainCloud, plainSrv := mk(true)

			emp := workload.Employee()
			for _, c := range []*Client{cached, plain} {
				if err := c.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
					t.Fatal(err)
				}
			}

			// Interleave repeated reads (cache hits), inserts (cache
			// invalidation) and first reads of fresh values (delta pulls).
			step := 0
			query := func(w Value) []Tuple {
				t.Helper()
				step++
				want, err := plain.Query(w)
				if err != nil {
					t.Fatalf("step %d: uncached Query(%v): %v", step, w, err)
				}
				got, err := cached.Query(w)
				if err != nil {
					t.Fatalf("step %d: cached Query(%v): %v", step, w, err)
				}
				if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
					t.Fatalf("step %d: cached Query(%v) = %v, want %v",
						step, w, relation.IDs(got), relation.IDs(want))
				}
				return got
			}
			insert(t, cached, plain, empTuple(1000, "E900"), true)
			for round := 0; round < 3; round++ {
				for _, eid := range []string{"E101", "E259", "E900", "E199", "E101"} {
					query(Str(eid))
				}
				insert(t, cached, plain, empTuple(1001+round, "E900"), true)
				query(Str("E900")) // must include the tuple just inserted

				// Non-sensitive inserts: one into another bin than E259's
				// (its held bin stays valid), then one into E259's bin.
				query(Str("E259"))
				views := cached.AdversarialViews()
				bin := views[len(views)-1].PlainValues
				other := ""
				for _, eid := range []string{"E152", "E199", "E254", "E259"} {
					if !slices.ContainsFunc(bin, func(v Value) bool { return v.Equal(Str(eid)) }) {
						other = eid
					}
				}
				if other == "" {
					t.Fatalf("E259's bin %v holds every non-sensitive value", bin)
				}
				before := len(query(Str("E259")))
				insert(t, cached, plain, empTuple(1100+round, other), false)
				hits := condHits(cachedCloud)
				if got := len(query(Str("E259"))); got != before {
					t.Fatalf("round %d: insert into another bin moved E259's answer from %d to %d tuples", round, before, got)
				}
				// The held bin revalidated, and so did NoInd's column.
				if got, want := condHits(cachedCloud)-hits, map[Technique]uint64{TechNoInd: 2, TechDetIndex: 1}[tech]; got != want {
					t.Fatalf("round %d: the read after an insert into another bin revalidated %d times, want %d", round, got, want)
				}
				insert(t, cached, plain, empTuple(1200+round, "E259"), false)
				if got := len(query(Str("E259"))); got != before+1 {
					t.Fatalf("round %d: insert into E259's bin: %d tuples, want %d", round, got, before+1)
				}
				query(Str(other))
			}
			// A non-sensitive value never seen re-bins the relation.
			insert(t, cached, plain, empTuple(1300, "E950"), false)
			for _, eid := range []string{"E950", "E259", "E950"} {
				query(Str(eid))
			}

			// Identical adversarial views, query for query.
			cv, pv := cached.AdversarialViews(), plain.AdversarialViews()
			if len(cv) != len(pv) {
				t.Fatalf("view counts differ: cached %d, uncached %d", len(cv), len(pv))
			}
			for i := range cv {
				if viewKey(cv[i]) != viewKey(pv[i]) {
					t.Errorf("view %d: cached %s != uncached %s", i, viewKey(cv[i]), viewKey(pv[i]))
				}
			}

			// The cache did real work and shrank the server-observed load.
			cs := cached.CacheStats()
			if cs.Hits == 0 || cs.Misses == 0 {
				t.Fatalf("cache stats = %+v, want both hits (revalidations) and misses (invalidations)", cs)
			}
			if ps := plain.CacheStats(); ps.Hits+ps.Misses != 0 {
				t.Fatalf("DisableCache client recorded cache traffic: %+v", ps)
			}
			co, po := cloudOps(cachedCloud), cloudOps(plainCloud)
			if co >= po {
				t.Fatalf("cached run hit the server %d times, uncached %d — cache saved nothing", co, po)
			}
			if cb, pb := cachedSrv.sent.Load(), plainSrv.sent.Load(); cb >= pb {
				t.Fatalf("cached cloud sent %d bytes, uncached %d", cb, pb)
			}
		})
	}
}

// insert applies the same insert to both clients.
func insert(t *testing.T, a, b *Client, tp Tuple, sensitive bool) {
	t.Helper()
	if err := a.Insert(tp, sensitive); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(tp, sensitive); err != nil {
		t.Fatal(err)
	}
}

// cloudOps sums the dispatched-op counters across a cloud's namespaces.
func cloudOps(cl *wire.Cloud) uint64 {
	var n uint64
	for _, s := range cl.Stats() {
		n += s.Ops
	}
	return n
}

// condHits sums the conditional reads a cloud answered "not modified"
// across its namespaces.
func condHits(cl *wire.Cloud) uint64 {
	var n uint64
	for _, s := range cl.Stats() {
		n += s.CondHits
	}
	return n
}

// TestCacheMultiClientReadYourWrites: a second client resumed onto the
// same namespace (the multi-writer deployment) must never be served a
// stale cached view — every read issued after a sibling's acknowledged
// insert sees that insert, because revalidation asks the server for the
// authoritative version on every query. The concurrent phase runs a
// writer against two caching readers and fails on any regression of the
// monotonic read bound; `go test -race` covers the cache's internal
// locking at the same time.
func TestCacheMultiClientReadYourWrites(t *testing.T) {
	addr := startRemoteCloud(t)
	mk := func() *Client {
		c, err := NewClient(Config{
			MasterKey: []byte("multi-writer cache"),
			Attr:      "EId",
			Seed:      seed(59),
			CloudAddr: addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	writer := mk()
	emp := workload.Employee()
	if err := writer.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	var meta bytes.Buffer
	if err := writer.SaveMetadata(&meta); err != nil {
		t.Fatal(err)
	}
	reader := mk()
	if err := reader.Resume(bytes.NewReader(meta.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Sequential: after each acknowledged insert by the writer, the caching
	// reader must count it — a single stale "not modified" would freeze the
	// count. The inserts reuse a searchable value both partitions hold —
	// the resumed reader's bin metadata predates them, and only values
	// already binned at SaveMetadata time are visible to both sessions —
	// and alternate between the partitions, so the held clear-text bin is
	// invalidated as surely as the encrypted column.
	baseSeq, err := reader.Query(Str("E259"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if err := writer.Insert(empTuple(2000+i, "E259"), i%2 == 0); err != nil {
			t.Fatal(err)
		}
		got, err := reader.Query(Str("E259"))
		if err != nil {
			t.Fatal(err)
		}
		if want := len(baseSeq) + i; len(got) != want {
			t.Fatalf("after insert %d: reader sees %d tuples, want %d (stale cache)", i, len(got), want)
		}
		// A second read with no intervening write revalidates from cache.
		if got, err = reader.Query(Str("E259")); err != nil || len(got) != len(baseSeq)+i {
			t.Fatalf("repeat read %d = %d tuples, %v", i, len(got), err)
		}
	}
	if cs := reader.CacheStats(); cs.Hits == 0 {
		t.Fatalf("reader cache never hit: %+v", cs)
	}

	// Concurrent: one writer, two caching readers, the acked count as the
	// staleness bound. acked is loaded BEFORE each query; the result may
	// only be larger (in-flight insert landed), never smaller. The writer
	// alternates partitions again, on another value both hold.
	baseCon, err := reader.Query(Str("E152"))
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 24; i++ {
			if err := writer.Insert(empTuple(3000+i, "E152"), i%2 == 0); err != nil {
				t.Error(err)
				break
			}
			acked.Add(1)
		}
		close(done)
	}()
	readErrs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := func() bool {
				floor := int64(len(baseCon)) + acked.Load()
				got, err := reader.Query(Str("E152"))
				if err != nil {
					readErrs <- err
					return false
				}
				if int64(len(got)) < floor {
					readErrs <- fmt.Errorf("stale read: %d tuples, %d acked before the query", len(got), floor)
					return false
				}
				return true
			}
			for {
				select {
				case <-done:
					check() // one final read past the last ack
					return
				default:
					if !check() {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Error(err)
	}
}

// TestCacheSurvivesCloudRestart: a caching reconnect client whose cloud
// is killed and restored from a snapshot must revalidate rather than
// trust its pre-crash cache — the restored store's fresh epoch forces a
// full resend — and must observe writes applied after the restart.
func TestCacheSurvivesCloudRestart(t *testing.T) {
	cloud := wire.NewCloud()
	srv := startChaosCloud(t, cloud)
	c, err := NewClient(Config{
		MasterKey: []byte("cache chaos"),
		Attr:      "EId",
		Seed:      seed(67),
		CloudAddr: srv.addr,
		Reconnect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	emp := workload.Employee()
	if err := c.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}

	// Warm the cache (a second read revalidates the held bin), then
	// snapshot exactly this state.
	before, err := c.Query(Str("E259"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(Str("E259")); err != nil {
		t.Fatal(err)
	}
	if hits := condHits(cloud); hits != 2 {
		t.Fatalf("warm read revalidated %d times, want 2: the column and the bin", hits)
	}
	var snap bytes.Buffer
	if err := cloud.Save(&snap); err != nil {
		t.Fatal(err)
	}

	// Crash and restore.
	srv.kill()
	restored := wire.NewCloud()
	if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	srv.restart(t, restored)

	// The warm cache must revalidate against the reborn store and still
	// answer correctly.
	after, err := c.Query(Str("E259"))
	if err != nil {
		t.Fatalf("query across restart: %v", err)
	}
	if !reflect.DeepEqual(relation.IDs(after), relation.IDs(before)) {
		t.Fatalf("post-restart Query = %v, want %v", relation.IDs(after), relation.IDs(before))
	}
	// The reborn store's new epoch answered the whole bin and column, then
	// held them: the next read revalidates both.
	if hits := condHits(restored); hits != 0 {
		t.Fatalf("first read after the restart was answered not modified %d times", hits)
	}
	if _, err := c.Query(Str("E259")); err != nil {
		t.Fatal(err)
	}
	if hits := condHits(restored); hits != 2 {
		t.Fatalf("second read after the restart revalidated %d times, want 2", hits)
	}
	// Writes applied to the restored cloud are visible immediately.
	if err := c.Insert(empTuple(4000, "E960"), true); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(Str("E960"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("insert after restart: reader sees %d tuples, want 1", len(got))
	}
	if cs := c.CacheStats(); cs.Hits+cs.Misses == 0 {
		t.Fatalf("cache never engaged across the restart: %+v", cs)
	}
}

// TestCachedRingFailoverMatchesUncached: the preferred replica of a ring
// namespace dies between two reads of one bin. The survivor's stores are
// other instances with their own epochs, so nothing held revalidates
// there: the first read after the failover gets the whole column and the
// whole bin (two cache misses), the next one revalidates both (two hits).
// Answers and adversarial views equal those of a DisableCache client over
// its own ring, query for query, and the cached ring sends fewer bytes.
func TestCachedRingFailoverMatchesUncached(t *testing.T) {
	mk := func(disable bool) (*Client, *ringCluster) {
		rc := startRingCluster(t, 3, 2)
		c, err := NewClient(Config{
			MasterKey:    []byte("ring cache"),
			Attr:         "EId",
			Seed:         seed(71),
			Ring:         rc.coAddr,
			DisableCache: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Outsource(workload.Employee(), workload.EmployeeSensitive); err != nil {
			t.Fatal(err)
		}
		return c, rc
	}
	cached, cachedRing := mk(false)
	plain, plainRing := mk(true)
	query := func(eid string) {
		t.Helper()
		want, err := plain.Query(Str(eid))
		if err != nil {
			t.Fatalf("uncached Query(%s): %v", eid, err)
		}
		got, err := cached.Query(Str(eid))
		if err != nil {
			t.Fatalf("cached Query(%s): %v", eid, err)
		}
		if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
			t.Fatalf("cached Query(%s) = %v, want %v", eid, relation.IDs(got), relation.IDs(want))
		}
	}
	query("E259")
	query("E259")

	for _, rc := range []*ringCluster{cachedRing, plainRing} {
		rc.replicasFor(t, wire.DefaultStore)[0].kill()
	}
	before := cached.CacheStats()
	query("E259")
	if cs := cached.CacheStats(); cs.Misses-before.Misses != 2 || cs.Hits != before.Hits {
		t.Fatalf("first read on the survivor: %d misses, %d hits; want the column and the bin resent",
			cs.Misses-before.Misses, cs.Hits-before.Hits)
	}
	before = cached.CacheStats()
	query("E259")
	if cs := cached.CacheStats(); cs.Hits-before.Hits != 2 || cs.Misses != before.Misses {
		t.Fatalf("second read on the survivor: %d hits, %d misses; want the column and the bin revalidated",
			cs.Hits-before.Hits, cs.Misses-before.Misses)
	}
	// A non-sensitive insert into the bin reaches the survivor's answer.
	insert(t, cached, plain, empTuple(5000, "E259"), false)
	for _, eid := range []string{"E259", "E101", "E259"} {
		query(eid)
	}

	cv, pv := cached.AdversarialViews(), plain.AdversarialViews()
	if len(cv) != len(pv) {
		t.Fatalf("view counts differ: cached %d, uncached %d", len(cv), len(pv))
	}
	for i := range cv {
		if viewKey(cv[i]) != viewKey(pv[i]) {
			t.Errorf("view %d: cached %s != uncached %s", i, viewKey(cv[i]), viewKey(pv[i]))
		}
	}
	sent := func(rc *ringCluster) (n int64) {
		for _, srv := range rc.nodes {
			n += srv.sent.Load()
		}
		return n
	}
	if cb, pb := sent(cachedRing), sent(plainRing); cb >= pb {
		t.Fatalf("cached ring sent %d bytes, uncached %d", cb, pb)
	}
}
