package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/crypto"
	"repro/internal/loadgen"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The traced pass rebuilds, per tenant, the stack repro.NewClient builds —
// transport, namespace view, technique, cache, owner — from the layers'
// public constructors, with a recording decorator at each boundary. The
// program under test is not edited: every span is taken from outside.

// countingConn counts the bytes one tenant's connections move, in both
// directions. It stands where the issue asked for a loopback proxy: the
// same numbers, without an extra hop in every timed round trip.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// opInfo is what the traced client notes about one caller operation
// besides its spans.
type opInfo struct {
	op    int
	kind  string // "read", "write" or "batch"
	bytes int64
	stats *repro.QueryStats // reads only
}

// tracedClient is the traced counterpart of repro.Client for one tenant.
type tracedClient struct {
	transport wire.Transport
	be        *tracedBackend
	o         *owner.Owner
	cache     *technique.Cache // nil when the workload disables it
	tr        *tracer
	wire      atomic.Int64 // bytes moved on this tenant's connections
	dial      time.Duration

	ops []opInfo
}

// dialCounting opens the tenant's transport — one connection to the single
// node, or a ring router whose node connections are dialed the same way —
// with every connection counting its bytes into n.
func dialCounting(s *stack, n *atomic.Int64) (wire.Transport, error) {
	dial := func(addr string) (*wire.Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return wire.NewClient(countingConn{conn, n}), nil
	}
	if s.ringAddr == "" {
		return dial(s.cloudAddr)
	}
	dir, err := dial(s.ringAddr)
	if err != nil {
		return nil, err
	}
	r, err := ring.NewRouter(dir, dial, ring.RouterOptions{})
	if err != nil {
		dir.Close()
		return nil, err
	}
	return r, nil
}

func newTracedClient(s *stack, w workloadSpec, cfg repro.Config, meta []byte) (_ *tracedClient, err error) {
	c := &tracedClient{tr: newTracer()}
	t0 := time.Now()
	if c.transport, err = dialCounting(s, &c.wire); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			c.transport.Close()
		}
	}()
	remote := c.transport.Store(cfg.Store)
	if err := remote.Ping(); err != nil {
		return nil, err
	}
	c.dial = time.Since(t0)
	remote.SetAdminToken(wire.OwnerToken(cfg.MasterKey, cfg.Store))
	c.be = &tracedBackend{inner: remote, tr: c.tr}

	keys := crypto.DeriveKeys(cfg.MasterKey)
	if !w.disableCache {
		c.cache = technique.NewCache(0)
	}
	var tech technique.Technique
	switch w.tech {
	case repro.TechNoInd:
		t, err := technique.NewNoIndOn(keys, c.be)
		if err != nil {
			return nil, err
		}
		t.SetCache(c.cache)
		tech = t
	case repro.TechDetIndex:
		t, err := technique.NewDetIndexOn(keys, c.be)
		if err != nil {
			return nil, err
		}
		t.SetCache(c.cache)
		tech = t
	default:
		return nil, fmt.Errorf("traced pass: no stack for technique %v", w.tech)
	}
	c.o = owner.New(&tracedTechnique{inner: tech, tr: c.tr}, cfg.Attr)
	c.o.SetCloudBackend(c.be)
	if err := c.o.LoadMetadata(bytes.NewReader(meta), c.be); err != nil {
		return nil, err
	}
	return c, nil
}

// finish closes the root span, notes the op, and surfaces remote failures
// the backend's void methods swallowed, as repro.Client does.
func (c *tracedClient) finish(root int, kind string, bytesBefore int64, errsBefore uint64, st *repro.QueryStats, err error) error {
	c.tr.end(root)
	c.ops = append(c.ops, opInfo{op: c.tr.op, kind: kind, bytes: c.wire.Load() - bytesBefore, stats: st})
	if err != nil {
		return err
	}
	if err := c.be.inner.Err(); err != nil {
		return err
	}
	if c.be.inner.LogicalErrCount() != errsBefore {
		return c.be.inner.LogicalErr()
	}
	return nil
}

func (c *tracedClient) QueryWithStats(w relation.Value) ([]relation.Tuple, *repro.QueryStats, error) {
	b, e := c.wire.Load(), c.be.inner.LogicalErrCount()
	root := c.tr.beginOp("owner.query")
	ts, st, err := c.o.Query(w)
	return ts, st, c.finish(root, "read", b, e, st, err)
}

func (c *tracedClient) QueryBatch(ws []relation.Value) ([][]relation.Tuple, error) {
	b, e := c.wire.Load(), c.be.inner.LogicalErrCount()
	root := c.tr.beginOp("owner.batch")
	out, _, err := c.o.QueryBatch(ws, 0)
	return out, c.finish(root, "batch", b, e, nil, err)
}

// SaveMetadata flushes and saves the owner metadata, as repro.Client does.
func (c *tracedClient) SaveMetadata(w io.Writer) error {
	if err := c.be.inner.Flush(); err != nil {
		return err
	}
	return c.o.SaveMetadata(w)
}

func (c *tracedClient) Close() error { return c.transport.Close() }

func (c *tracedClient) Insert(t relation.Tuple, sensitive bool) error {
	b, e := c.wire.Load(), c.be.inner.LogicalErrCount()
	root := c.tr.beginOp("owner.insert")
	err := c.o.Insert(t, sensitive)
	if err == nil {
		err = c.be.Flush()
	}
	return c.finish(root, "write", b, e, nil, err)
}

// runOps drives every tenant closed-loop until each has done n steps or
// dur has passed, whichever comes first, and returns the ops completed per
// second while at least one caller was still running.
func runOps(ts []*tenant, n int, dur time.Duration, step func(t *tenant, start time.Time) (sample, bool)) float64 {
	left := make([]int, len(ts))
	for i := range left {
		left[i] = n
	}
	per := runPhase(ts, dur, func(t *tenant, start time.Time) (sample, bool) {
		// Each caller touches only its own counter.
		if left[t.idx]--; left[t.idx] < 0 {
			time.Sleep(time.Until(start.Add(dur)))
			return sample{}, false
		}
		return step(t, start)
	})
	ops, last := 0, time.Duration(0)
	for _, ss := range per {
		ops += len(ss)
		if len(ss) > 0 {
			last = max(last, ss[len(ss)-1].end)
		}
	}
	return ratio(float64(ops), last.Seconds())
}

// Sizes of the traced pass. Reference and traced segments alternate so
// that a slow minute on the machine falls on both sides of the comparison.
const (
	tracedRounds  = 3
	tracedOps     = 2000 // steady ops per caller, over all rounds
	tracedBatches = 20   // QueryBatch calls per caller
	tracedTailOps = 500  // inserts per caller on the read-only workloads
)

// traceData is what the traced sessions of one deployment recorded, one
// entry per tenant and round.
type traceData struct {
	spans [][]span
	infos [][]opInfo

	steadyOps            float64 // ops of the steady segments
	serverOps, condHits  float64 // server-side counter growth over them
	cacheHits, cacheMiss float64
	cacheBytes           float64 // accounted cache size at the end, all tenants
	dial                 time.Duration
	calls                []storeCall // tenant 0's cloud-facing calls of the first round
	replica              *replica
}

// tracedSessions returns the open function that resumes a tenant's
// namespace through the traced stack, and the clients it has opened.
func (d *deployment) tracedSessions() (open func(i int, meta []byte) (session, error), opened func() []*tracedClient) {
	var tcs []*tracedClient
	open = func(i int, meta []byte) (session, error) {
		tc, err := newTracedClient(d.stack, d.spec, d.cfgs[i], meta)
		if err != nil {
			return nil, fmt.Errorf("traced stack: %w", err)
		}
		tcs = append(tcs, tc)
		return tc, nil
	}
	return open, func() []*tracedClient { out := tcs; tcs = nil; return out }
}

// tracedSteady alternates untraced reference segments with traced ones
// and leaves the deployment on traced sessions. It returns the reference
// phase (one segment per round) and the traced ops/s of each round.
func (d *deployment) tracedSteady(seconds float64, rounds, opsPerCaller int, td *traceData) (*phase, []float64, error) {
	segment := time.Duration(seconds / float64(rounds) * float64(time.Second))
	ref := &phase{segment: segment, per: make([][]sample, len(d.tenants))}
	var tracedRates []float64
	open, opened := d.tracedSessions()
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if err := d.switchSessions(d.openPublic); err != nil {
				return nil, nil, err
			}
		}
		ref.runSegment(d.tenants, stepOp)

		if err := d.switchSessions(open); err != nil {
			return nil, nil, err
		}
		tcs := opened()
		new(traceData).collect(tcs) // drop what the re-warm recorded
		if round == 0 {
			var err error
			if td.replica, err = newReplica(tcs[0], d.tenants[0]); err != nil {
				return nil, nil, err
			}
			tcs[0].be.record = true
			td.dial = tcs[0].dial
		}
		stats, cache := serverStats(d), cacheStats(tcs)
		rate := runOps(d.tenants, opsPerCaller/rounds, segment, stepOp)
		tracedRates = append(tracedRates, rate)
		statsAfter, cacheAfter := serverStats(d), cacheStats(tcs)
		td.serverOps += float64(statsAfter.Ops - stats.Ops)
		td.condHits += float64(statsAfter.CondHits - stats.CondHits)
		td.cacheHits += float64(cacheAfter.Hits - cache.Hits)
		td.cacheMiss += float64(cacheAfter.Misses - cache.Misses)
		td.cacheBytes = float64(cacheAfter.Bytes)
		if round == 0 {
			tcs[0].be.record = false
			td.calls = tcs[0].be.calls
		}
		td.collect(tcs)
	}
	for _, in := range td.infos {
		td.steadyOps += float64(len(in))
	}
	return ref, tracedRates, nil
}

// collect takes what the traced clients have recorded so far.
func (td *traceData) collect(tcs []*tracedClient) {
	for _, c := range tcs {
		td.spans = append(td.spans, c.tr.take())
		td.infos = append(td.infos, c.ops)
		c.ops = nil
	}
}

// current returns the deployment's sessions as traced clients.
func (d *deployment) current() []*tracedClient {
	out := make([]*tracedClient, len(d.sessions))
	for i, s := range d.sessions {
		out[i] = s.(*tracedClient)
	}
	return out
}

// runTraced is the second pass: the same workload with a span at every
// layer boundary beside untraced reference segments to reconcile against,
// the open-loop continuity phase, and the in-process layer arms.
func runTraced(e *env, w workloadSpec) (*runResult, error) {
	r := &runResult{metrics: map[string]metric{}}
	d, err := setUp(e, w)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r.set("setup.boot_s", d.times.boot)
	r.set("setup.outsource_s", d.times.outsource)
	r.set("setup.resume_s", d.times.resume)
	r.set("setup.warm_s", d.times.warm)

	steady, batches, tail := &traceData{}, &traceData{}, &traceData{}
	ref, tracedRates, err := d.tracedSteady(0.3*e.seconds, tracedRounds, tracedOps, steady)
	if err != nil {
		return nil, err
	}
	ref.note(r, "untraced reference")
	reads, writes := split(ref.clean())
	refOpsS, tracedOpsS := ref.segmentRate(), median(tracedRates)
	refReadMs, refWriteMs := ms(percentile(reads, 50)), ms(percentile(writes, 50))

	// Still on the traced sessions of the last round: batches, and on a
	// read-only workload the write tail, whose spans make its write table.
	dur := func(share float64) time.Duration { return time.Duration(share * e.seconds * float64(time.Second)) }
	runOps(d.tenants, tracedBatches, dur(0.1), stepBatch)
	batches.collect(d.current())
	if w.readOnly() {
		for _, t := range d.tenants {
			t.checkSize = false
		}
		runOps(d.tenants, tracedTailOps, dur(0.05), stepInsert)
		tail.collect(d.current())
	}
	if err := writeTrace(w.name, steady.spans, batches.spans, tail.spans); err != nil {
		return nil, err
	}

	if err := d.switchSessions(d.openPublic); err != nil {
		return nil, err
	}
	if err := paced(r, d.tenants, w, dur(0.3)); err != nil {
		return nil, err
	}

	readT := newLayerTable(steady.spans, steady.infos, "read")
	writeT := newLayerTable(steady.spans, steady.infos, "write")
	if w.readOnly() {
		writeT = newLayerTable(tail.spans, tail.infos, "write")
	}
	replayed := steady.replica.replay(steady.calls)

	ownerMetrics(r, readT, writeT, steady.infos)
	techniqueMetrics(r, readT, steady)
	wireMetrics(r, readT, steady, tail, replayed)
	for name, v := range replayed.metrics() {
		r.set(name, v)
	}
	r.set("trace.overhead_pct", 100*ratio(refOpsS-tracedOpsS, refOpsS))
	r.set("trace.unexplained_pct", 100*ratio(refReadMs*1000-readT.wall, refReadMs*1000))
	r.notes = append(r.notes, readT.render(w.name, "read", refReadMs*1000, replayed)...)
	if writeT.n > 0 {
		r.notes = append(r.notes, writeT.render(w.name, "write", refWriteMs*1000, replayed)...)
	}
	r.notef("steady throughput: untraced reference %.0f ops/s, traced %.0f ops/s (medians of %d alternating segments)",
		refOpsS, tracedOpsS, tracedRounds)

	dialMs := 0.0
	if w.ring {
		dialMs = ms(steady.dial)
	}
	r.set("ring.dial_ms", dialMs)
	if err := ringMetrics(r, e, w, readT, writeT); err != nil {
		return nil, err
	}

	if err := cryptoLayer(r); err != nil {
		return nil, err
	}
	if err := relationLayer(r); err != nil {
		return nil, err
	}
	if err := coreLayer(r, e.data[0], e.seed); err != nil {
		return nil, err
	}
	if err := pingLayer(r, d.stack.nodeAddrs[0]); err != nil {
		return nil, err
	}
	if err := techniqueLayer(r); err != nil {
		return nil, err
	}

	if w.ring {
		if err := checkReplicaParity(d); err != nil {
			d.tenants[0].attempted++
			d.tenants[0].fail(err)
		}
	}
	r.tally(d.tenants)
	return r, nil
}

// writeTrace dumps the in-memory spans once the run is over.
func writeTrace(workload string, parts ...[][]span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// One entry per traced session: a tenant's spans of one round of the
	// steady phase, of the batches, or of the write tail. Span and op
	// numbers start again in every session.
	type sessionSpans struct {
		Tenant int    `json:"tenant"`
		Spans  []span `json:"spans"`
	}
	var out []sessionSpans
	for _, spans := range parts {
		for i, s := range spans {
			out = append(out, sessionSpans{Tenant: i % tenants, Spans: s})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644)
}

// paced is the open-loop continuity phase: each caller's ops are due on a
// fixed schedule and latency counts from the due time, so waiting behind a
// slow predecessor is measured. The caller stays sequential — one op in
// flight per tenant — which keeps the reference exact. Reported, never
// gated: see README.md.
func paced(r *runResult, ts []*tenant, w workloadSpec, dur time.Duration) error {
	type obs struct{ lat, late time.Duration }
	out := make([][]obs, len(ts))
	scheduled := make([]int64, len(ts))
	pacers := make([]*loadgen.Pacer, len(ts))
	for i := range pacers {
		p, err := loadgen.NewPacer(nil, w.pacedRate)
		if err != nil {
			return err
		}
		pacers[i] = p
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func(i int, t *tenant) {
			defer wg.Done()
			p := pacers[i]
			for {
				due := p.Next()
				if due.Sub(start) >= dur || time.Since(start) >= dur {
					break
				}
				scheduled[i]++
				op := t.ops.Next()
				op.Read = true
				t0 := time.Now()
				if s, ok := t.do(op, start); ok {
					out[i] = append(out[i], obs{lat: t0.Sub(due) + s.lat, late: t0.Sub(due)})
				}
			}
		}(i, t)
	}
	wg.Wait()
	var lat, late []time.Duration
	var sched, done int64
	for i := range out {
		sched += scheduled[i]
		done += int64(len(out[i]))
		for _, o := range out[i] {
			lat = append(lat, o.lat)
			late = append(late, max(o.late, 0))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	r.set("paced.read_p50_ms", ms(percentile(lat, 50)))
	r.set("paced.read_p99_ms", ms(percentile(lat, 99)))
	r.set("paced.late_p99_ms", ms(percentile(late, 99)))
	ratio := 0.0
	if want := w.pacedRate * dur.Seconds() * float64(len(ts)); want > 0 {
		ratio = float64(done) / want
	}
	r.set("paced.achieved_ratio", ratio)
	r.notef("paced: %.0f reads/s per caller offered, %d scheduled, %d completed, highest supported percentile p%g",
		w.pacedRate, sched, done, highestPercentile(len(lat)))
	return nil
}

// serverStats sums the namespaces' server-side counters over every node.
func serverStats(d *deployment) wire.StoreStats {
	var sum wire.StoreStats
	for _, addr := range d.stack.nodeAddrs {
		c, err := wire.Dial(addr)
		if err != nil {
			continue
		}
		for i, t := range d.tenants {
			st, err := c.AdminStats(t.store, wire.OwnerToken(d.cfgs[i].MasterKey, t.store))
			if err != nil {
				continue // the node does not host this namespace
			}
			sum.Ops += st.Ops
			sum.CondHits += st.CondHits
		}
		c.Close()
	}
	return sum
}

func cacheStats(tcs []*tracedClient) technique.CacheStats {
	var sum technique.CacheStats
	for _, c := range tcs {
		if c.cache == nil {
			continue
		}
		s := c.cache.Stats()
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.BytesSaved += s.BytesSaved
		sum.Bytes += s.Bytes
	}
	return sum
}

// replica is a local copy of tenant 0's namespace: the traced calls are
// replayed against it to split a round trip into storage and transport.
type replica struct {
	enc   *storage.EncryptedStore
	plain *storage.PlainStore
}

func newReplica(c *tracedClient, t *tenant) (*replica, error) {
	rep := &replica{enc: storage.NewEncryptedStore()}
	for _, row := range c.be.inner.Rows() {
		rep.enc.Add(row.TupleCT, row.AttrCT, row.Token)
	}
	if err := c.be.inner.Err(); err != nil {
		return nil, err
	}
	_, rns := relation.Partition(t.data.rel, t.data.sensitive)
	for _, tup := range t.plainInserted {
		if err := rns.Append(tup); err != nil {
			return nil, err
		}
	}
	ps, err := storage.NewPlainStore(rns, workload.Attr)
	if err != nil {
		return nil, err
	}
	rep.plain = ps
	return rep, nil
}

// ringMetrics prices the ring by running the same traced steady ops on a
// single-node deployment of the same workload and subtracting, per
// typical op, the time spent in cloud-facing calls. Only ring-write pays
// for the second deployment; elsewhere the metrics are zero.
func ringMetrics(r *runResult, e *env, w workloadSpec, readT, writeT *layerTable) error {
	if !w.ring {
		r.set("ring.read_overhead_us", 0)
		r.set("ring.write_fanout_us", 0)
		return nil
	}
	single := w
	single.ring = false
	d, err := setUp(e, single)
	if err != nil {
		return err
	}
	defer d.close()
	open, opened := d.tracedSessions()
	if err := d.switchSessions(open); err != nil {
		return err
	}
	tcs := opened()
	new(traceData).collect(tcs) // drop what the re-warm recorded
	td := &traceData{}
	runOps(d.tenants, tracedOps/2, time.Duration(0.1*e.seconds*float64(time.Second)), stepOp)
	td.collect(tcs)
	r.set("ring.read_overhead_us", readT.wireTime()-newLayerTable(td.spans, td.infos, "read").wireTime())
	r.set("ring.write_fanout_us", writeT.wireTime()-newLayerTable(td.spans, td.infos, "write").wireTime())
	r.tally(d.tenants)
	return nil
}
