package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/ring"
	"repro/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload produced.
type runResult struct {
	metrics   map[string]metric
	notes     []string // human-readable lines: sample counts, percentiles supported
	attempted int
	failed    int
	failure   string // first failure, empty when the run is correct
}

// set records a metric of the catalogue (see metrics.go) under its unit.
func (r *runResult) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally folds the tenants' correctness counters into the result.
func (r *runResult) tally(ts []*tenant) {
	for _, t := range ts {
		r.attempted += t.attempted
		r.failed += t.failed
		if r.failure == "" {
			r.failure = t.firstFailure
		}
	}
}

// env carries what every run needs besides its workload.
type env struct {
	seed              uint64
	seconds           float64
	corrupt           bool
	cloudBin, ringBin string
	data              []*dataset
}

// setupTimes are the parts of one set-up, in seconds.
type setupTimes struct{ boot, outsource, resume, warm float64 }

func (s setupTimes) total() float64 { return s.boot + s.outsource + s.resume + s.warm }

// deployment is one fully set-up system under test: booted servers,
// outsourced namespaces, resumed callers, warm caches.
type deployment struct {
	spec     workloadSpec
	stack    *stack
	tenants  []*tenant
	sessions []session
	cfgs     []repro.Config
	times    setupTimes
}

// session is one owner session over a tenant's namespace: the public
// client, or the traced stack that stands in for it.
type session interface {
	querier
	SaveMetadata(w io.Writer) error
	Close() error
}

func (d *deployment) close() {
	for _, s := range d.sessions {
		s.Close()
	}
	d.stack.stop()
}

// openPublic resumes tenant i's namespace through the public client.
func (d *deployment) openPublic(i int, meta []byte) (session, error) {
	return resume(d.cfgs[i], meta)
}

// storeNames picks each tenant's namespace. On a single node the name is
// immaterial. On the ring, placement is a hash of the name over node
// addresses, and the addresses are ephemeral ports: left alone, one run
// would co-locate both tenants' primaries and the next would not. The
// names are therefore searched so that tenant i's primary is always node
// i and its second replica node i+1 — the same topology on every run.
func storeNames(s *stack) []string {
	names := make([]string, tenants)
	if s.ringAddr == "" {
		for i := range names {
			names[i] = fmt.Sprintf("bench/t%02d", i)
		}
		return names
	}
	dir := &ring.Directory{Replicas: ringReplicas}
	for _, a := range s.nodeAddrs {
		dir.Nodes = append(dir.Nodes, ring.Node{ID: a, Addr: a, Alive: true})
	}
	r := ring.Build(dir)
	for i := range names {
		for k := 0; ; k++ {
			name := fmt.Sprintf("bench/t%02d-%d", i, k)
			p := r.Placement(name)
			if len(p) == ringReplicas && p[0].Addr == s.nodeAddrs[i%ringNodes] && p[1].Addr == s.nodeAddrs[(i+1)%ringNodes] {
				names[i] = name
				break
			}
		}
	}
	return names
}

// setUp boots and populates one deployment and warms it up to the first
// timed op.
func setUp(e *env, w workloadSpec) (*deployment, error) {
	t0 := time.Now()
	st, err := bootStack(w, e.cloudBin, e.ringBin)
	if err != nil {
		return nil, err
	}
	d := &deployment{spec: w, stack: st}
	d.times.boot = time.Since(t0).Seconds()
	names := storeNames(st)

	t1 := time.Now()
	metas := make([][]byte, tenants)
	d.cfgs = make([]repro.Config, tenants)
	for i := 0; i < tenants; i++ {
		d.cfgs[i] = clientConfig(st, w, e.seed, i, names[i])
		if metas[i], err = outsource(d.cfgs[i], e.data[i]); err != nil {
			d.close()
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
	}
	d.times.outsource = time.Since(t1).Seconds()

	t2 := time.Now()
	for i := 0; i < tenants; i++ {
		c, err := d.openPublic(i, metas[i])
		if err != nil {
			d.close()
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		d.sessions = append(d.sessions, c)
		t := newTenant(i, names[i], e.data[i], e.seed, w, e.corrupt && i == 0)
		t.q = c
		d.tenants = append(d.tenants, t)
	}
	d.times.resume = time.Since(t2).Seconds()

	t3 := time.Now()
	warmUp(d.tenants, warmOps)
	d.times.warm = time.Since(t3).Seconds()
	return d, nil
}

// switchSessions replaces every caller's owner session with one that open
// resumes from the metadata the old session saves, and re-warms it.
//
// Between the segments of a phase this is done with openPublic, for a
// reason that is the system's and not the benchmark's: an owner session
// retains every adversarial view it has produced — some 150 KB per read at
// this size, gigabytes over a steady phase. Left to grow, that log turns
// the run into a page-fault benchmark and lets the number of ops one phase
// happened to complete set the garbage collector's schedule in the next.
func (d *deployment) switchSessions(open func(i int, meta []byte) (session, error)) error {
	for i, t := range d.tenants {
		var meta bytes.Buffer
		if err := d.sessions[i].SaveMetadata(&meta); err != nil {
			return fmt.Errorf("tenant %d: save metadata: %w", i, err)
		}
		d.sessions[i].Close()
		s, err := open(i, meta.Bytes())
		if err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		d.sessions[i] = s
		t.q = s
	}
	warmUp(d.tenants, rewarmOps)
	return nil
}

// warmUp runs the untimed, checked ops that fill caches and finish lazy
// set-up (length probes, first column pull) before anything is timed.
func warmUp(ts []*tenant, n int) {
	var wg sync.WaitGroup
	for _, t := range ts {
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			start := time.Now()
			for i := 0; i < n; i++ {
				t.do(t.next(), start)
			}
			t.doBatch(start)
		}(t)
	}
	wg.Wait()
}

// runUntraced is one end-to-end run of one workload with tracing off.
//
// The steady phase runs on the last of the setupReps deployments. The two
// short phases, batch and (on a read-only workload) the write tail, are cut
// into shortSegments segments each, and the first half of those runs on
// deployments that are torn down again: same seed, same state, and nothing
// measured later sees their inserts. That puts a short phase's samples at
// both ends of the run, because the sandbox changes speed for half a minute
// at a time and four seconds at the end of the run would take whichever
// speed they find there (README.md, "Load shape").
func runUntraced(e *env, w workloadSpec) (*runResult, error) {
	r := &runResult{metrics: map[string]metric{}}
	ph := w.phases(e.seconds)
	batch, tail := newPhase(ph.batch, shortSegments), newPhase(ph.writeTail, shortSegments)

	var d *deployment
	var totals []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if len(batch.stolen) < shortSegments/2 {
				if err := d.runFresh(batch, stepBatch); err != nil {
					return nil, err
				}
				if w.readOnly() {
					if err := d.runFresh(tail, stepInsert); err != nil {
						return nil, err
					}
				}
			}
			r.tally(d.tenants)
			d.close()
		}
		var err error
		if d, err = setUp(e, w); err != nil {
			return nil, err
		}
		totals = append(totals, d.times.total())
	}
	defer d.close()
	r.set("setup_s", median(totals))
	r.notef("setup_s: median of %d set-ups %.3f s (boot %.3f, outsource %.3f, resume %.3f, warm %.3f in the last)",
		len(totals), median(totals), d.times.boot, d.times.outsource, d.times.resume, d.times.warm)

	held, servers := heldRSSMiB(), d.stack.peakRSSMiB()
	r.set("rss_mb", held+servers)
	r.notef("rss at end of set-up: bench holds %.0f MiB after collection (peak %.0f), servers peaked at %.0f MiB",
		held, peakRSSMiB(os.Getpid()), servers)

	steady := newPhase(ph.steady, segmentsOf(ph.steady))
	steady.runSegment(d.tenants, stepOp)
	for len(steady.stolen) < segmentsOf(ph.steady) {
		if err := d.runFresh(steady, stepOp); err != nil {
			return nil, err
		}
	}
	steady.note(r, "steady")
	reads, writes := split(steady.clean())
	r.set("steady_ops_s", steady.segmentRate())
	latencyMetrics(r, "read", readTail, reads)

	for len(batch.stolen) < shortSegments {
		if err := d.runFresh(batch, stepBatch); err != nil {
			return nil, err
		}
	}
	batch.note(r, "batch")
	per := batch.clean()
	r.set("batch_qps", batchRate(per))
	nb := 0
	for _, s := range per {
		nb += len(s)
	}
	r.notef("batch: %d QueryBatch calls of %d selections", nb, batchSize)

	if w.readOnly() {
		// The size invariant covers reads of the outsourced state; the
		// write tail changes that state, so it comes last and ends the check.
		for _, t := range d.tenants {
			t.checkSize = false
		}
		for len(tail.stolen) < shortSegments {
			if err := d.runFresh(tail, stepInsert); err != nil {
				return nil, err
			}
		}
		tail.note(r, "write tail")
		_, writes = split(tail.clean())
	}
	latencyMetrics(r, "write", writeTail, writes)

	if w.ring {
		if err := checkReplicaParity(d); err != nil {
			d.tenants[0].attempted++
			d.tenants[0].fail(err)
		}
	}
	r.notef("rss at teardown: bench peaked at %.0f MiB, servers at %.0f MiB", peakRSSMiB(os.Getpid()), d.stack.peakRSSMiB())
	r.tally(d.tenants)
	return r, nil
}

// checkReplicaParity asserts, at teardown of a ring run, that both
// replicas of every namespace hold the same rows, as many clear-text ones
// as the reference, and that the node outside the placement holds none:
// every acknowledged write reached every replica.
func checkReplicaParity(d *deployment) error {
	for _, t := range d.tenants {
		var infos []wire.StoreInfo
		for _, addr := range d.stack.nodeAddrs {
			c, err := wire.Dial(addr)
			if err != nil {
				return fmt.Errorf("replica parity: dial %s: %w", addr, err)
			}
			info, err := c.StoreInfo(t.store)
			c.Close()
			if err != nil {
				return fmt.Errorf("replica parity: %s on %s: %w", t.store, addr, err)
			}
			if info.Exists {
				infos = append(infos, info)
			}
		}
		if len(infos) != ringReplicas {
			return fmt.Errorf("replica parity: %s is on %d nodes, want %d", t.store, len(infos), ringReplicas)
		}
		for _, in := range infos[1:] {
			if in.EncRows != infos[0].EncRows || in.PlainTuples != infos[0].PlainTuples {
				return fmt.Errorf("replica parity: %s replicas differ: %d/%d encrypted rows, %d/%d clear-text tuples",
					t.store, infos[0].EncRows, in.EncRows, infos[0].PlainTuples, in.PlainTuples)
			}
		}
		want := len(t.plainInserted)
		for _, v := range t.data.values {
			want += v.Plain
		}
		if infos[0].PlainTuples != want {
			return fmt.Errorf("replica parity: %s holds %d clear-text tuples, the reference %d", t.store, infos[0].PlainTuples, want)
		}
	}
	return nil
}
