// Package owner implements the trusted database owner of the partitioned
// computation model (§II): it classifies tuples by sensitivity, outsources
// the non-sensitive partition in clear-text and the sensitive partition
// under a pluggable cryptographic technique, keeps the binning metadata,
// rewrites selection queries through QB (or naively, for the attack
// baselines), and merges, decrypts and filters the results (q_merge).
//
// All exported methods are safe for concurrent use: queries share a read
// lock and run in parallel, mutations serialise behind the write lock.
// Every query shape — Query, QueryNaive, QueryRange, QueryAggregate, Join
// and the batches — runs through one executor, executeViewBatch, a single
// selection as a batch of one (see batch.go). Batches (QueryBatch,
// QueryAsync) are observationally equivalent to a sequential Query loop —
// identical per-query answers and an identical adversarial-view log — with
// QueryBatch executing the encrypted side of the whole batch as one
// technique call so scan-shaped techniques do their store scan once per
// batch.
package owner

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/technique"
)

// payload flag bytes distinguishing real tuples from the encrypted fake
// tuples of §IV-B. Both are probabilistically encrypted, so the adversary
// cannot tell them apart; the owner discards fakes after decryption.
const (
	flagReal byte = 0
	flagFake byte = 1
)

// QueryStats reports the cost and composition of one partitioned query.
type QueryStats struct {
	// Enc aggregates the cryptographic technique's costs.
	Enc technique.Stats
	// PlainTuples is the number of non-sensitive tuples returned for the
	// non-sensitive bin.
	PlainTuples int
	// FakeDiscarded counts fake tuples filtered out after decryption.
	FakeDiscarded int
	// BinDiscarded counts real tuples fetched because they share a bin with
	// the query value but do not match it.
	BinDiscarded int
	// Result is the number of tuples in the final answer.
	Result int
}

// Owner is the trusted client. All exported methods are safe for
// concurrent use. Reads (queries in all flavours) share an RWMutex read
// lock and execute in parallel — the stores, the techniques and the cloud
// view log synchronise internally — while mutations (Outsource, Insert,
// metadata load) take the write lock and serialise against everything
// else. The batch engine in batch.go builds on this by running the
// plaintext bin fetches of a batch, and QueryAsync's selections, on a
// worker pool.
type Owner struct {
	mu      sync.RWMutex
	attr    string
	attrIdx int
	schema  relation.Schema

	tech    technique.Technique
	server  *cloud.Server
	backend cloud.PlainBackend // optional remote clear-text backend
	bins    *core.Bins

	binOpts core.Options

	// Owner-side metadata: real tuple counts per value on each side, plus
	// fake tuples already materialised per sensitive value.
	sensCounts map[string]*relation.ValueCount
	nsCounts   map[string]*relation.ValueCount
	fakeCounts map[string]int
}

// New creates an owner that will search on attr using tech.
func New(tech technique.Technique, attr string) *Owner {
	return &Owner{
		attr:       attr,
		tech:       tech,
		sensCounts: make(map[string]*relation.ValueCount),
		nsCounts:   make(map[string]*relation.ValueCount),
		fakeCounts: make(map[string]int),
	}
}

// Server returns the cloud server (nil before Outsource).
func (o *Owner) Server() *cloud.Server {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.server
}

// Bins returns the current binning metadata (nil before Outsource).
func (o *Owner) Bins() *core.Bins {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.bins
}

// Technique returns the underlying cryptographic technique.
func (o *Owner) Technique() technique.Technique { return o.tech }

// Attr returns the searchable attribute.
func (o *Owner) Attr() string { return o.attr }

// SetCloudBackend routes the clear-text partition to an external backend
// (e.g. a remote cloud over the wire protocol) instead of the in-process
// store. Must be called before Outsource.
func (o *Owner) SetCloudBackend(b cloud.PlainBackend) { o.backend = b }

// Outsource partitions r by the sensitivity predicate, uploads the
// non-sensitive partition in clear-text and the sensitive partition through
// the technique (with fake-tuple padding), and builds the QB bins.
func (o *Owner) Outsource(r *relation.Relation, sensitive relation.Predicate, binOpts core.Options) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	ci, ok := r.Schema.ColumnIndex(o.attr)
	if !ok {
		return fmt.Errorf("owner: relation %q has no searchable attribute %q", r.Schema.Name, o.attr)
	}
	o.attrIdx = ci
	o.schema = r.Schema
	o.binOpts = binOpts

	rs, rns := relation.Partition(r, sensitive)

	for _, t := range rs.Tuples {
		o.bumpCount(o.sensCounts, t.Values[ci])
	}
	for _, t := range rns.Tuples {
		o.bumpCount(o.nsCounts, t.Values[ci])
	}

	var err error
	o.bins, err = core.CreateBins(countsSlice(o.sensCounts), countsSlice(o.nsCounts), binOpts)
	if err != nil {
		return err
	}

	if o.backend != nil {
		o.server, err = cloud.NewServerOn(o.backend, rns, o.attr)
	} else {
		o.server, err = cloud.NewServer(rns, o.attr)
	}
	if err != nil {
		return err
	}

	rows := make([]technique.Row, 0, rs.Len()+o.bins.TotalFakeTuples())
	for _, t := range rs.Tuples {
		rows = append(rows, technique.Row{
			Payload: encodePayload(flagReal, t),
			Attr:    t.Values[ci],
		})
	}
	rows = append(rows, o.fakeRows()...)
	if _, err := o.tech.Outsource(rows); err != nil {
		return err
	}
	return nil
}

// fakeRows materialises the per-bin fake tuples demanded by the current
// binning, minus any fakes already outsourced (relevant after inserts), and
// updates the fake ledger.
func (o *Owner) fakeRows() []technique.Row {
	var rows []technique.Row
	for i, bin := range o.bins.Sensitive {
		if len(bin) == 0 {
			continue
		}
		// Existing fakes on this bin's values already contribute volume.
		have := 0
		for _, vc := range bin {
			have += o.fakeCounts[vc.Value.Key()]
		}
		need := o.bins.FakePerBin[i] - have
		for f := 0; f < need; f++ {
			v := bin[f%len(bin)].Value
			rows = append(rows, technique.Row{
				Payload: encodePayload(flagFake, o.fakeTuple(v)),
				Attr:    v,
			})
			o.fakeCounts[v.Key()]++
		}
	}
	return rows
}

// fakeTuple builds a schema-conformant dummy tuple carrying v in the
// searchable attribute.
func (o *Owner) fakeTuple(v relation.Value) relation.Tuple {
	vals := make([]relation.Value, len(o.schema.Columns))
	for i, c := range o.schema.Columns {
		if i == o.attrIdx {
			vals[i] = v
			continue
		}
		if c.Kind == relation.KindString {
			vals[i] = relation.Str("")
		} else {
			vals[i] = relation.Int(0)
		}
	}
	return relation.Tuple{ID: 0, Values: vals}
}

func encodePayload(flag byte, t relation.Tuple) []byte {
	return append([]byte{flag}, relation.EncodeTuple(t)...)
}

// decodePayloadSlab decodes an encodePayload payload and reports whether
// it is a fake, drawing Values storage from a shared slab — the q_merge
// loops decode one payload per retrieved row, and a per-tuple allocation
// there was a top line in the remote query profile.
func decodePayloadSlab(p []byte, slab *[]relation.Value) (relation.Tuple, bool, error) {
	if len(p) < 1 {
		return relation.Tuple{}, false, relation.ErrCorrupt
	}
	t, rest, err := relation.DecodeTupleSlab(p[1:], slab)
	if err != nil {
		return relation.Tuple{}, false, err
	}
	if len(rest) != 0 {
		return relation.Tuple{}, false, relation.ErrCorrupt
	}
	return t, p[0] == flagFake, nil
}

// ErrNotOutsourced is returned by queries before Outsource.
var ErrNotOutsourced = errors.New("owner: relation not outsourced yet")

// Query answers SELECT * WHERE attr = w through QB: Algorithm 2 picks one
// sensitive and one non-sensitive bin, the technique searches the encrypted
// side, the cloud searches the plaintext side, and q_merge decrypts,
// discards fakes and bin co-residents, and unions the matches.
func (o *Owner) Query(w relation.Value) ([]relation.Tuple, *QueryStats, error) {
	ts, st, view, err := o.QueryDetached(w)
	if err != nil {
		return nil, nil, err
	}
	o.RecordView(view)
	return ts, st, nil
}

// QueryDetached executes the query exactly like Query but hands the
// adversarial view back to the caller instead of recording it with the
// cloud. The batch engine uses this to log the views of a whole batch in
// input order, keeping AdversarialViews deterministic regardless of which
// worker finished first; every caller must pass the view to RecordView
// (the cloud observed the execution whether or not it is logged).
func (o *Owner) QueryDetached(w relation.Value) ([]relation.Tuple, *QueryStats, cloud.View, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.bins == nil || o.server == nil {
		return nil, nil, cloud.View{}, ErrNotOutsourced
	}
	st := &QueryStats{}
	ts, view, err := o.selectLocked(w, st)
	if err != nil {
		return nil, nil, cloud.View{}, err
	}
	return ts, st, view, nil
}

// selectLocked runs the QB selection attr = w through its two bins. A value
// absent from both partitions fetches nothing; the cloud still observes an
// (empty) interaction. The caller holds o.mu (read suffices).
func (o *Owner) selectLocked(w relation.Value, st *QueryStats) ([]relation.Tuple, cloud.View, error) {
	ret, ok := o.bins.Retrieve(w)
	if !ok {
		return nil, cloud.View{}, nil
	}
	eq := func(v relation.Value) bool { return v.Equal(w) }
	return o.executeOne(eq, ret.SensValues, ret.NSValues, st)
}

// RecordView appends a view produced by QueryDetached to the cloud's log.
func (o *Owner) RecordView(v cloud.View) {
	if s := o.Server(); s != nil {
		s.Record(v)
	}
}

// QueryNaive answers the query without binning, sending the exact predicate
// to both partitions regardless of where it occurs — the insecure strawman
// of Example 2. The cloud sees the clear-text predicate on Rns and whether
// each side returned tuples, which is exactly the inference leak of
// Table II.
func (o *Owner) QueryNaive(w relation.Value) ([]relation.Tuple, *QueryStats, error) {
	o.mu.RLock()
	if o.bins == nil || o.server == nil {
		o.mu.RUnlock()
		return nil, nil, ErrNotOutsourced
	}
	st := &QueryStats{}
	eq := func(v relation.Value) bool { return v.Equal(w) }
	ts, view, err := o.executeOne(eq, []relation.Value{w}, []relation.Value{w}, st)
	o.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	o.RecordView(view)
	return ts, st, nil
}

func (o *Owner) bumpCount(m map[string]*relation.ValueCount, v relation.Value) {
	k := v.Key()
	if vc, ok := m[k]; ok {
		vc.Count++
		return
	}
	m[k] = &relation.ValueCount{Value: v, Count: 1}
}

func countsSlice(m map[string]*relation.ValueCount) []relation.ValueCount {
	out := make([]relation.ValueCount, 0, len(m))
	for _, vc := range m {
		out = append(out, *vc)
	}
	// Deterministic order so that a seeded permutation reproduces bins.
	sort.Slice(out, func(i, j int) bool { return out[i].Value.Less(out[j].Value) })
	return out
}
