package loadgen

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/relation"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Config parameterises one load run.
type Config struct {
	// Tenants is the number of simulated tenants (K). Each tenant owns an
	// independently keyed relation in its own cloud namespace.
	Tenants int
	// Clients is the number of clients per tenant (M). Against a remote
	// cloud these are real repro.Clients: client 0 outsources and every
	// other client resumes from its metadata over the same namespace.
	// In-process they are M load loops over the tenant's single client
	// (an in-process cloud is private to its client by construction).
	Clients int
	// Rate is the target open-loop arrival rate per tenant in ops/sec,
	// split evenly across its clients.
	Rate float64
	// Duration bounds the run by schedule time; ignored when Ops > 0.
	Duration time.Duration
	// Ops, when > 0, bounds the run by a fixed per-client op count
	// instead (deterministic runs for tests).
	Ops int
	// Gen shapes each client's op stream (read/write mix, Zipf skew).
	Gen GenConfig
	// Tuples and DistinctValues size each tenant's generated relation.
	Tuples, DistinctValues int
	// Alpha is the sensitive fraction of each tenant's relation.
	Alpha float64
	// AssocFraction is the fraction of sensitive values that also keep
	// non-sensitive tuples (workload.GenSpec.AssocFraction); it creates
	// the mixed values whose writes exercise both partitions.
	AssocFraction float64
	// Technique selects the cryptographic search mechanism.
	Technique repro.Technique
	// CloudAddr, when set, targets a remote qbcloud; empty hosts one
	// in-process cloud per tenant.
	CloudAddr string
	// RingAddr, when set, targets a qbring coordinator instead of a single
	// qbcloud: clients route through the ring transport (placement,
	// replication, failover). Mutually exclusive with CloudAddr; Reconnect
	// is ignored in ring mode.
	RingAddr string
	// Reconnect wraps remote clients in the reconnecting transport so a
	// chaos kill/restart is measured (as latency) instead of fatal.
	Reconnect bool
	// DisableCache turns off the owner-side version cache the remote
	// clients enable by default (repro.Config.DisableCache) — the control
	// arm for before/after comparisons.
	DisableCache bool
	// CacheBytes bounds each client's cache (0 = library default).
	CacheBytes int
	// StorePrefix namespaces this run's stores ("<prefix>/t00", ...).
	StorePrefix string
	// Seed makes datasets, op streams and bin permutations deterministic.
	Seed uint64
	// MaxInFlight caps concurrently outstanding ops per client (the
	// open-loop issue pool); 0 selects 128. When the cap is exhausted the
	// arrival loop blocks, but arrivals keep their scheduled times, so
	// the induced queueing still lands in the latency distribution.
	MaxInFlight int
	// Check cross-checks every read against the sequential reference
	// bounds and counts violations in TenantResult.ChecksFailed.
	Check bool
	// Clock supplies time (pacing and latency measurement); nil selects
	// the real clock.
	Clock wire.Clock
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() error {
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: Rate must be positive, got %g", c.Rate)
	}
	if c.Duration <= 0 && c.Ops <= 0 {
		return fmt.Errorf("loadgen: one of Duration or Ops is required")
	}
	if c.Tuples <= 0 {
		c.Tuples = 2000
	}
	if c.DistinctValues <= 0 {
		c.DistinctValues = 100
	}
	if c.Gen.ReadFraction < 0 || c.Gen.ReadFraction > 1 {
		return fmt.Errorf("loadgen: ReadFraction must be in [0,1], got %g", c.Gen.ReadFraction)
	}
	if c.StorePrefix == "" {
		c.StorePrefix = "qbload"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 128
	}
	if c.Clock == nil {
		c.Clock = wire.RealClock()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.CloudAddr != "" && c.RingAddr != "" {
		return fmt.Errorf("loadgen: CloudAddr and RingAddr are mutually exclusive")
	}
	if c.remote() && c.Clients > 1 && c.Gen.ReadFraction < 1 && c.Technique == repro.TechArx {
		// Arx search walks per-occurrence tokens counted in owner-local
		// metadata: a reader resumed before a write cannot derive the new
		// occurrence's token, so multi-client read-your-writes does not
		// hold. Refuse instead of reporting phantom lost writes.
		return fmt.Errorf("loadgen: Arx with writes requires Clients=1 (per-occurrence token counters are owner-local)")
	}
	return nil
}

// remote reports whether the run targets out-of-process clouds (single
// qbcloud or ring).
func (c *Config) remote() bool { return c.CloudAddr != "" || c.RingAddr != "" }

// TenantResult is one tenant's (or the aggregate) scoreboard.
type TenantResult struct {
	Tenant       string
	Store        string
	TargetQPS    float64
	Ops          int64
	Errors       int64
	ChecksFailed int64
	AchievedQPS  float64
	Mean         time.Duration
	P50, P95     time.Duration
	P99, Max     time.Duration
	// Owner-side version-cache totals, summed across the tenant's clients
	// (zero when the cache is off).
	CacheHits       uint64
	CacheMisses     uint64
	CacheBytesSaved uint64
}

// Result is the outcome of one Run.
type Result struct {
	Elapsed   time.Duration
	Tenants   []TenantResult
	Aggregate TenantResult
	// FirstCheckFailure describes the first reference-check violation
	// (empty when none).
	FirstCheckFailure string
}

// valueState is the reference checker's per-value write accounting.
type valueState struct {
	base   int64 // tuples at Outsource
	issued atomic.Int64
	acked  atomic.Int64
}

// tenantState is one tenant's live harness.
type tenantState struct {
	name, store string
	targetRate  float64
	values      []ValueInfo
	arity       int

	writer  *repro.Client   // all mutations route here (owner metadata is single-writer)
	clients []*repro.Client // query clients; index 0 is the writer

	checkOn bool
	check   map[relation.Value]*valueState

	hist         Histogram
	ops          atomic.Int64
	errors       atomic.Int64
	checksFailed atomic.Int64
	nextID       atomic.Int64

	failMu    sync.Mutex
	firstFail string
}

// setupTenant generates the tenant's dataset, outsources it, and (against
// a remote cloud) fans out reader clients resumed from the writer's
// metadata snapshot.
func setupTenant(cfg *Config, t int) (*tenantState, error) {
	seed := cfg.Seed + uint64(t)*1009
	ds, err := workload.Generate(workload.GenSpec{
		Name:           fmt.Sprintf("Load%02d", t),
		Tuples:         cfg.Tuples,
		DistinctValues: cfg.DistinctValues,
		Alpha:          cfg.Alpha,
		AssocFraction:  cfg.AssocFraction,
		ExtraColumns:   1,
		Seed:           int64(seed),
	})
	if err != nil {
		return nil, err
	}

	ts := &tenantState{
		name:       fmt.Sprintf("t%02d", t),
		targetRate: cfg.Rate,
		arity:      ds.Relation.Schema.Arity(),
		checkOn:    cfg.Check,
		check:      make(map[relation.Value]*valueState, len(ds.Values)),
	}
	ts.nextID.Store(int64(cfg.Tuples + 1_000_000))

	// Baseline per-value, per-partition counts — captured before
	// Outsource so the checker's bounds are the sequential reference.
	plain := make(map[relation.Value]int, len(ds.Values))
	sens := make(map[relation.Value]int, len(ds.Values))
	for _, tup := range ds.Relation.Tuples {
		v := tup.Values[0]
		if ds.SensitiveIDs[tup.ID] {
			sens[v]++
		} else {
			plain[v]++
		}
	}
	for _, v := range ds.Values {
		ts.values = append(ts.values, ValueInfo{Value: v, Plain: plain[v], Sens: sens[v]})
		ts.check[v] = &valueState{base: int64(plain[v] + sens[v])}
	}

	permSeed := seed
	rcfg := repro.Config{
		MasterKey: []byte(fmt.Sprintf("qbload tenant %02d key", t)),
		Attr:      workload.Attr,
		Technique: cfg.Technique,
		Seed:      &permSeed,
	}
	if cfg.remote() {
		rcfg.CloudAddr = cfg.CloudAddr
		rcfg.Ring = cfg.RingAddr
		rcfg.Reconnect = cfg.Reconnect
		rcfg.DisableCache = cfg.DisableCache
		rcfg.CacheBytes = cfg.CacheBytes
		ts.store = fmt.Sprintf("%s/%s", cfg.StorePrefix, ts.name)
		rcfg.Store = ts.store
	}

	writer, err := repro.NewClient(rcfg)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", ts.name, err)
	}
	ts.writer = writer
	ts.clients = []*repro.Client{writer}
	if err := writer.Outsource(ds.Relation, ds.Sensitive); err != nil {
		ts.close()
		return nil, fmt.Errorf("tenant %s: outsource: %w", ts.name, err)
	}

	if cfg.remote() && cfg.Clients > 1 {
		var meta bytes.Buffer
		if err := writer.SaveMetadata(&meta); err != nil {
			ts.close()
			return nil, fmt.Errorf("tenant %s: save metadata: %w", ts.name, err)
		}
		for c := 1; c < cfg.Clients; c++ {
			rc, err := repro.NewClient(rcfg)
			if err != nil {
				ts.close()
				return nil, fmt.Errorf("tenant %s: client %d: %w", ts.name, c, err)
			}
			ts.clients = append(ts.clients, rc)
			if err := rc.Resume(bytes.NewReader(meta.Bytes())); err != nil {
				ts.close()
				return nil, fmt.Errorf("tenant %s: client %d resume: %w", ts.name, c, err)
			}
		}
	}
	return ts, nil
}

func (ts *tenantState) close() {
	for _, c := range ts.clients {
		c.Close()
	}
}

// noteCheckFailure records the first violation verbatim (the count tracks
// the rest).
func (ts *tenantState) noteCheckFailure(format string, args ...any) {
	ts.checksFailed.Add(1)
	ts.failMu.Lock()
	if ts.firstFail == "" {
		ts.firstFail = fmt.Sprintf(format, args...)
	}
	ts.failMu.Unlock()
}

// issue executes one op and records its latency from the scheduled
// arrival time (not the issue time: with the schedule as the origin,
// time an op spent queueing behind a stall is measured, not omitted).
func (ts *tenantState) issue(cli *repro.Client, op Op, sched time.Time, clock wire.Clock) {
	st := ts.check[op.Value]
	if op.Read {
		var lo int64
		if ts.checkOn {
			// Writes acknowledged before the read was issued must all be
			// visible; writes merely issued may be.
			lo = st.base + st.acked.Load()
		}
		got, err := cli.Query(op.Value)
		if err != nil {
			ts.errors.Add(1)
			return
		}
		ts.hist.Record(clock.Now().Sub(sched))
		ts.ops.Add(1)
		if ts.checkOn {
			hi := st.base + st.issued.Load()
			if n := int64(len(got)); n < lo || n > hi {
				ts.noteCheckFailure("tenant %s: Query(%v) returned %d tuples, want within [%d, %d]",
					ts.name, op.Value, n, lo, hi)
				return
			}
			for _, tup := range got {
				if !tup.Values[0].Equal(op.Value) {
					ts.noteCheckFailure("tenant %s: Query(%v) returned tuple %d with value %v",
						ts.name, op.Value, tup.ID, tup.Values[0])
					return
				}
			}
		}
		return
	}

	// Mutation: pinned to the writer client. A failed insert keeps its
	// `issued` increment — it may have been partially applied, and the
	// upper bound must stay an upper bound.
	if ts.checkOn {
		st.issued.Add(1)
	}
	tup := relation.Tuple{ID: int(ts.nextID.Add(1)), Values: make([]relation.Value, ts.arity)}
	tup.Values[0] = op.Value
	for i := 1; i < ts.arity; i++ {
		tup.Values[i] = relation.Int(int64(tup.ID))
	}
	if err := ts.writer.Insert(tup, op.Sensitive); err != nil {
		ts.errors.Add(1)
		return
	}
	if ts.checkOn {
		st.acked.Add(1)
	}
	ts.hist.Record(clock.Now().Sub(sched))
	ts.ops.Add(1)
}

// clientLoop is one client's open-loop arrival process.
func (ts *tenantState) clientLoop(cfg *Config, slot int, start time.Time) error {
	cli := ts.clients[slot%len(ts.clients)]
	gen := NewGenerator(ts.values, cfg.Gen, cfg.Seed^hashString(ts.name)^(uint64(slot)+1)*0x9e3779b97f4a7c15)
	pacer, err := NewPacer(cfg.Clock, cfg.Rate/float64(cfg.Clients))
	if err != nil {
		return err
	}
	sem := make(chan struct{}, cfg.MaxInFlight)
	var inflight sync.WaitGroup
	for i := 0; cfg.Ops <= 0 || i < cfg.Ops; i++ {
		sched := pacer.Next()
		// Duration mode truncates the arrival process at the wall
		// deadline too: when the target rate exceeds capacity the
		// remaining schedule would otherwise be issued (and measured)
		// long after the window — unbounded wall time for a bounded run.
		// The achieved-vs-target QPS gap is how that shedding reports.
		if cfg.Ops <= 0 && (sched.Sub(start) >= cfg.Duration ||
			cfg.Clock.Now().Sub(start) >= cfg.Duration) {
			break
		}
		op := gen.Next()
		sem <- struct{}{}
		inflight.Add(1)
		go func() {
			defer func() { <-sem; inflight.Done() }()
			ts.issue(cli, op, sched, cfg.Clock)
		}()
	}
	inflight.Wait()
	return nil
}

// hashString is a small FNV-1a so per-client generator seeds differ
// across tenants without coordinating.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// result converts the tenant's counters into its scoreboard row.
func (ts *tenantState) result(elapsed time.Duration) TenantResult {
	r := TenantResult{
		Tenant:       ts.name,
		Store:        ts.store,
		TargetQPS:    ts.targetRate,
		Ops:          ts.ops.Load(),
		Errors:       ts.errors.Load(),
		ChecksFailed: ts.checksFailed.Load(),
		Mean:         ts.hist.Mean(),
		P50:          ts.hist.Percentile(50),
		P95:          ts.hist.Percentile(95),
		P99:          ts.hist.Percentile(99),
		Max:          ts.hist.Max(),
	}
	for _, c := range ts.clients {
		cs := c.CacheStats()
		r.CacheHits += cs.Hits
		r.CacheMisses += cs.Misses
		r.CacheBytesSaved += cs.BytesSaved
	}
	if elapsed > 0 {
		r.AchievedQPS = float64(r.Ops) / elapsed.Seconds()
	}
	return r
}

// Run executes the configured load and returns the scoreboard. Setup
// (dataset generation and outsourcing) happens before the clock starts;
// teardown closes every client.
func Run(cfg Config) (*Result, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	tenants := make([]*tenantState, cfg.Tenants)
	defer func() {
		for _, ts := range tenants {
			if ts != nil {
				ts.close()
			}
		}
	}()
	for t := range tenants {
		ts, err := setupTenant(&cfg, t)
		if err != nil {
			return nil, err
		}
		tenants[t] = ts
		cfg.Logf("loadgen: tenant %s ready (%d tuples, %d values, %d clients)",
			ts.name, cfg.Tuples, len(ts.values), len(ts.clients))
	}

	start := cfg.Clock.Now()
	var (
		wg      sync.WaitGroup
		loopMu  sync.Mutex
		loopErr error
	)
	for _, ts := range tenants {
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func(ts *tenantState, c int) {
				defer wg.Done()
				if err := ts.clientLoop(&cfg, c, start); err != nil {
					loopMu.Lock()
					if loopErr == nil {
						loopErr = err
					}
					loopMu.Unlock()
				}
			}(ts, c)
		}
	}
	wg.Wait()
	if loopErr != nil {
		return nil, loopErr
	}
	elapsed := cfg.Clock.Now().Sub(start)

	res := &Result{Elapsed: elapsed}
	var agg Histogram
	aggRow := TenantResult{Tenant: "aggregate", TargetQPS: cfg.Rate * float64(cfg.Tenants)}
	for _, ts := range tenants {
		row := ts.result(elapsed)
		res.Tenants = append(res.Tenants, row)
		agg.Merge(&ts.hist)
		aggRow.Ops += row.Ops
		aggRow.Errors += row.Errors
		aggRow.ChecksFailed += row.ChecksFailed
		aggRow.CacheHits += row.CacheHits
		aggRow.CacheMisses += row.CacheMisses
		aggRow.CacheBytesSaved += row.CacheBytesSaved
		ts.failMu.Lock()
		if res.FirstCheckFailure == "" && ts.firstFail != "" {
			res.FirstCheckFailure = ts.firstFail
		}
		ts.failMu.Unlock()
	}
	aggRow.Mean, aggRow.P50, aggRow.P95 = agg.Mean(), agg.Percentile(50), agg.Percentile(95)
	aggRow.P99, aggRow.Max = agg.Percentile(99), agg.Max()
	if elapsed > 0 {
		aggRow.AchievedQPS = float64(aggRow.Ops) / elapsed.Seconds()
	}
	res.Aggregate = aggRow
	return res, nil
}
