package main

import (
	"bytes"
	"fmt"
	mrand "math/rand/v2"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/relation"
	"repro/internal/workload"
)

// subSeed derives an independent stream seed from the run seed, so the
// datasets, op streams, batch streams and bin permutations of all tenants
// are functions of -seed alone.
func subSeed(seed uint64, tenant int, purpose uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(tenant+1)*0xbf58476d1ce4e5b9 + purpose*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}

const (
	seedData = iota + 1
	seedPerm
	seedOps
	seedBatch
	seedWrites
)

// dataset is one tenant's generated relation with the per-value partition
// counts the op generator needs.
type dataset struct {
	rel       *relation.Relation
	sensitive relation.Predicate
	values    []loadgen.ValueInfo
}

func generateDataset(seed uint64, tenant, tuples, distinct int) (*dataset, error) {
	ds, err := workload.Generate(workload.GenSpec{
		Name:           fmt.Sprintf("Bench%02d", tenant),
		Tuples:         tuples,
		DistinctValues: distinct,
		Alpha:          sensAlpha,
		AssocFraction:  assocFraction,
		ExtraColumns:   extraColumns,
		Seed:           int64(subSeed(seed, tenant, seedData) >> 1),
	})
	if err != nil {
		return nil, err
	}
	plain := make(map[relation.Value]int, len(ds.Values))
	sens := make(map[relation.Value]int, len(ds.Values))
	for _, t := range ds.Relation.Tuples {
		if ds.SensitiveIDs[t.ID] {
			sens[t.Values[0]]++
		} else {
			plain[t.Values[0]]++
		}
	}
	d := &dataset{rel: ds.Relation, sensitive: ds.Sensitive}
	for _, v := range ds.Values {
		d.values = append(d.values, loadgen.ValueInfo{Value: v, Plain: plain[v], Sens: sens[v]})
	}
	return d, nil
}

// reference is the exact in-memory answer key: every value's tuple IDs in
// ascending order, which is the order Client.Query returns them in.
// Inserted IDs are handed out ascending above every generated ID, so an
// append keeps each list sorted.
type reference map[relation.Value][]int

func newReference(rel *relation.Relation) reference {
	ref := make(reference)
	for _, t := range rel.Tuples {
		ref[t.Values[0]] = append(ref[t.Values[0]], t.ID)
	}
	return ref
}

// check compares one answer with the reference by tuple ID.
func (r reference) check(v relation.Value, got []relation.Tuple) error {
	want := r[v]
	if len(got) != len(want) {
		return fmt.Errorf("query %v: %d tuples, reference has %d", v, len(got), len(want))
	}
	for i, t := range got {
		if t.ID != want[i] {
			return fmt.Errorf("query %v: tuple %d has ID %d, reference has %d", v, i, t.ID, want[i])
		}
	}
	return nil
}

// sample is one completed, checked operation.
type sample struct {
	seg  int           // segment of the phase the op ran in
	end  time.Duration // completion time since the segment started
	lat  time.Duration
	read bool
}

// querier is what a caller drives: the public client in the untraced
// pass, the traced stack in the traced one.
type querier interface {
	QueryWithStats(w relation.Value) ([]relation.Tuple, *repro.QueryStats, error)
	QueryBatch(ws []relation.Value) ([][]relation.Tuple, error)
	Insert(t relation.Tuple, sensitive bool) error
}

// tenant is one namespace with its single sequential caller. Because the
// caller is sequential, the reference that applies the same inserts is
// exact, not a bound.
type tenant struct {
	idx   int
	store string
	data  *dataset
	arity int

	q   querier
	ref reference
	// Deterministic op sources, all functions of the seed.
	ops    *loadgen.Generator // the workload's read/write mix over every value
	batch  *loadgen.Generator // selections of the batch phase
	writes *loadgen.Generator // values of the inserts; see nextWrite
	mix    *mrand.Rand
	nextID int
	// plainInserted are the acknowledged clear-text inserts, for the
	// replica-parity check and the traced pass's local replica.
	plainInserted []relation.Tuple

	// checkSize enables the size-attack invariant on reads: every read of
	// this tenant must return the same number of encrypted addresses.
	checkSize bool
	encAddrs  int // the constant, -1 until the first read

	attempted, failed int
	firstFailure      string
}

func newTenant(idx int, store string, d *dataset, seed uint64, w workloadSpec, corrupt bool) *tenant {
	// Inserts go to values that occupy both partitions, so that either
	// partition can take one without re-binning.
	var both []loadgen.ValueInfo
	for _, v := range d.values {
		if v.Plain > 0 && v.Sens > 0 {
			both = append(both, v)
		}
	}
	mixSeed := subSeed(seed, idx, seedWrites)
	t := &tenant{
		idx: idx, store: store, data: d,
		arity:     d.rel.Schema.Arity(),
		ref:       newReference(d.rel),
		ops:       loadgen.NewGenerator(d.values, loadgen.GenConfig{ReadFraction: w.readFraction, ZipfS: zipfS}, subSeed(seed, idx, seedOps)),
		batch:     loadgen.NewGenerator(d.values, loadgen.GenConfig{ReadFraction: 1, ZipfS: zipfS}, subSeed(seed, idx, seedBatch)),
		writes:    loadgen.NewGenerator(both, loadgen.GenConfig{ReadFraction: 0, ZipfS: zipfS}, mixSeed),
		mix:       mrand.New(mrand.NewPCG(mixSeed, mixSeed^0x6a09e667f3bcc908)),
		nextID:    insertIDBase,
		checkSize: w.readOnly(),
		encAddrs:  -1,
	}
	if corrupt {
		// Self-test of the gate: the heaviest value is queried within the
		// first few ops, so a run with a corrupted key must fail.
		ids := t.ref[d.values[0].Value]
		ids[len(ids)-1]++
	}
	return t
}

func (t *tenant) fail(err error) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf("tenant %d (%s): %v", t.idx, t.store, err)
	}
}

// next draws the caller's next operation. Which value an op touches and
// whether it reads come from the workload's stream; an insert's value and
// partition come from nextWrite.
func (t *tenant) next() loadgen.Op {
	if op := t.ops.Next(); op.Read {
		return op
	}
	return t.nextWrite()
}

// nextWrite draws an insert: a Zipf-ranked value among those occupying
// both partitions, sensitive with probability sensitiveInserts. Left to
// loadgen's own rule the sensitive share would follow whichever partitions
// the seed's hottest values happen to occupy, and with it every write
// metric.
func (t *tenant) nextWrite() loadgen.Op {
	op := t.writes.Next()
	op.Sensitive = t.mix.Float64() < sensitiveInserts
	return op
}

// do executes and checks one operation. A failed op yields no latency
// sample: it counts as missing, not as fast.
func (t *tenant) do(op loadgen.Op, phaseStart time.Time) (sample, bool) {
	t.attempted++
	if op.Read {
		return t.read(op.Value, phaseStart)
	}
	return t.insert(op.Value, op.Sensitive, phaseStart)
}

func (t *tenant) read(v relation.Value, phaseStart time.Time) (sample, bool) {
	t0 := time.Now()
	got, st, err := t.q.QueryWithStats(v)
	t1 := time.Now()
	if err == nil {
		err = t.ref.check(v, got)
	}
	if err == nil && t.checkSize {
		n := len(st.Enc.ReturnedAddrs)
		if t.encAddrs < 0 {
			t.encAddrs = n
		} else if n != t.encAddrs {
			err = fmt.Errorf("size invariant: query %v returned %d encrypted addresses, earlier reads %d", v, n, t.encAddrs)
		}
	}
	if err != nil {
		t.fail(err)
		return sample{}, false
	}
	return sample{end: t1.Sub(phaseStart), lat: t1.Sub(t0), read: true}, true
}

func (t *tenant) insert(v relation.Value, sensitive bool, phaseStart time.Time) (sample, bool) {
	tup := relation.Tuple{ID: t.nextID, Values: make([]relation.Value, t.arity)}
	t.nextID++
	tup.Values[0] = v
	for i := 1; i < t.arity; i++ {
		tup.Values[i] = relation.Int(int64(tup.ID))
	}
	t0 := time.Now()
	err := t.q.Insert(tup, sensitive)
	t1 := time.Now()
	if err != nil {
		// The insert may or may not have landed; every later read of v
		// would be ambiguous, so the failure is final for the run.
		t.fail(fmt.Errorf("insert %v: %w", v, err))
		return sample{}, false
	}
	t.ref[v] = append(t.ref[v], tup.ID)
	if !sensitive {
		t.plainInserted = append(t.plainInserted, tup)
	}
	return sample{end: t1.Sub(phaseStart), lat: t1.Sub(t0)}, true
}

// doBatch answers batchSize selections in one QueryBatch call and checks
// every one of them.
func (t *tenant) doBatch(phaseStart time.Time) (sample, bool) {
	ws := make([]relation.Value, batchSize)
	for i := range ws {
		ws[i] = t.batch.Next().Value
	}
	t.attempted += len(ws)
	t0 := time.Now()
	got, err := t.q.QueryBatch(ws)
	t1 := time.Now()
	if err == nil && len(got) != len(ws) {
		err = fmt.Errorf("batch returned %d answers for %d selections", len(got), len(ws))
	}
	if err != nil {
		// Every selection of a failed call is missing.
		t.failed += len(ws) - 1
		t.fail(err)
		return sample{}, false
	}
	ok := true
	for i, w := range ws {
		if err := t.ref.check(w, got[i]); err != nil {
			t.fail(err)
			ok = false
		}
	}
	return sample{end: t1.Sub(phaseStart), lat: t1.Sub(t0), read: true}, ok
}

// clientConfig is the tenant's repro.Config against the given stack.
func clientConfig(s *stack, w workloadSpec, seed uint64, idx int, store string) repro.Config {
	perm := subSeed(seed, idx, seedPerm)
	return repro.Config{
		MasterKey:    []byte(fmt.Sprintf("qb bench tenant %02d key", idx)),
		Attr:         workload.Attr,
		Technique:    w.tech,
		Seed:         &perm,
		CloudAddr:    s.cloudAddr,
		Ring:         s.ringAddr,
		DisableCache: w.disableCache,
		Store:        store,
	}
}

// outsource uploads the tenant's relation through a throw-away owner
// session and returns the owner metadata the caller's session resumes
// from, the way a long-lived deployment restarts its owner process.
func outsource(cfg repro.Config, d *dataset) ([]byte, error) {
	c, err := repro.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Outsource(d.rel, d.sensitive); err != nil {
		return nil, fmt.Errorf("outsource: %w", err)
	}
	var meta bytes.Buffer
	if err := c.SaveMetadata(&meta); err != nil {
		return nil, fmt.Errorf("save metadata: %w", err)
	}
	return meta.Bytes(), nil
}

// resume opens the caller's session over the already-populated namespace.
func resume(cfg repro.Config, meta []byte) (*repro.Client, error) {
	c, err := repro.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.Resume(bytes.NewReader(meta)); err != nil {
		c.Close()
		return nil, fmt.Errorf("resume: %w", err)
	}
	return c, nil
}
