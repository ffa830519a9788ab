package owner

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/technique"
)

// This file implements the extensions the conference paper defers to the
// full version: inserts, range selections, and an owner-side equi-join of
// two QB-partitioned relations.

// Insert adds a new tuple to the outsourced relation. Non-sensitive tuples
// go to the plaintext store; sensitive tuples are encrypted and uploaded.
// If the searchable value is new, the bins are recreated (metadata only —
// the cloud stores are value-agnostic); in all cases the fake-tuple ledger
// is rebalanced so every sensitive bin keeps an identical padded volume.
func (o *Owner) Insert(t relation.Tuple, sensitive bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.bins == nil || o.server == nil {
		return ErrNotOutsourced
	}
	if err := o.schema.Check(t.Values); err != nil {
		return err
	}
	v := t.Values[o.attrIdx]
	if sensitive {
		if _, err := o.tech.Outsource([]technique.Row{{
			Payload: encodePayload(flagReal, t),
			Attr:    v,
		}}); err != nil {
			return err
		}
		o.bumpCount(o.sensCounts, v)
	} else {
		if err := o.server.InsertPlain(t); err != nil {
			return err
		}
		o.bumpCount(o.nsCounts, v)
	}

	newValue := sensitive && !o.bins.ContainsSensitive(v) ||
		!sensitive && !o.bins.ContainsNonSensitive(v)
	if newValue {
		bins, err := core.CreateBins(countsSlice(o.sensCounts), countsSlice(o.nsCounts), o.binOpts)
		if err != nil {
			return fmt.Errorf("owner: re-binning after insert: %w", err)
		}
		o.bins = bins
		o.dropBins()
	}
	return o.rebalanceFakes()
}

// rebalanceFakes tops sensitive bins up with fake tuples so that, counting
// both real tuples and the fakes already outsourced, every bin answers with
// the same volume. Fakes are append-only: the cloud never observes a
// deletion.
func (o *Owner) rebalanceFakes() error {
	if len(o.bins.Sensitive) == 0 {
		return nil
	}
	vols := make([]int, len(o.bins.Sensitive))
	maxVol := 0
	for i, bin := range o.bins.Sensitive {
		for _, vc := range bin {
			vols[i] += vc.Count + o.fakeCounts[vc.Value.Key()]
		}
		if vols[i] > maxVol {
			maxVol = vols[i]
		}
	}
	var rows []technique.Row
	for i, bin := range o.bins.Sensitive {
		if len(bin) == 0 {
			continue
		}
		for f := 0; f < maxVol-vols[i]; f++ {
			v := bin[f%len(bin)].Value
			rows = append(rows, technique.Row{
				Payload: encodePayload(flagFake, o.fakeTuple(v)),
				Attr:    v,
			})
			o.fakeCounts[v.Key()]++
		}
	}
	if len(rows) == 0 {
		return nil
	}
	_, err := o.tech.Outsource(rows)
	return err
}

// QueryRange answers SELECT * WHERE lo <= attr <= hi. The owner's metadata
// lists every live value, so the range is rewritten into the set of bins
// covering the in-range values; both sides are fetched bin-wise (preserving
// the QB adversarial view shape) and filtered locally.
func (o *Owner) QueryRange(lo, hi relation.Value) ([]relation.Tuple, *QueryStats, error) {
	o.mu.RLock()
	if o.bins == nil || o.server == nil {
		o.mu.RUnlock()
		return nil, nil, ErrNotOutsourced
	}
	if hi.Less(lo) {
		lo, hi = hi, lo
	}
	st := &QueryStats{}
	inRange := func(v relation.Value) bool {
		return v.Compare(lo) >= 0 && v.Compare(hi) <= 0
	}
	// Every in-range value, on either side, pulls in the sensitive and the
	// non-sensitive bin its own selection would retrieve.
	sensBins := make(map[int]bool)
	nsBins := make(map[int]bool)
	for _, bins := range [][][]relation.ValueCount{o.bins.Sensitive, o.bins.NonSensitive} {
		for _, bin := range bins {
			for _, vc := range bin {
				if !inRange(vc.Value) {
					continue
				}
				if ret, ok := o.bins.Retrieve(vc.Value); ok {
					if ret.SensBin >= 0 {
						sensBins[ret.SensBin] = true
					}
					if ret.NSBin >= 0 {
						nsBins[ret.NSBin] = true
					}
				}
			}
		}
	}

	out, view, err := o.executeOne(inRange, binValues(o.bins.Sensitive, sensBins), binValues(o.bins.NonSensitive, nsBins), st)
	o.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	o.RecordView(view)
	return out, st, nil
}

// binValues lists, in bin order, the values of the bins picked.
func binValues(bins [][]relation.ValueCount, picked map[int]bool) []relation.Value {
	var out []relation.Value
	for i, bin := range bins {
		if picked[i] {
			for _, vc := range bin {
				out = append(out, vc.Value)
			}
		}
	}
	return out
}

// mergeEnc is the encrypted half of q_merge for the selections g, which
// share one sensitive bin's payloads: it discards fakes and co-residents
// and appends each selection's matches to its answer. Most of a bin is
// discarded, so each payload is checked whole but read once, at its flag
// and search attribute, and only a kept one is decoded, once.
func (o *Owner) mergeEnc(payloads [][]byte, g []int, matches []func(relation.Value) bool, sts []*QueryStats, out [][]relation.Tuple) error {
	var slab []relation.Value
	fakes := 0
	for _, p := range payloads {
		if len(p) < 1 {
			return relation.ErrCorrupt
		}
		v, err := relation.TupleValueAt(p[1:], o.attrIdx)
		if err != nil {
			return err
		}
		if p[0] == flagFake {
			fakes++
			continue
		}
		var t relation.Tuple // decoded at the first match, then has Values
		for _, i := range g {
			if !matches[i](v) {
				sts[i].BinDiscarded++
				continue
			}
			if t.Values == nil {
				if t, _, err = decodePayloadSlab(p, &slab); err != nil {
					return err
				}
			}
			out[i] = append(out[i], t)
		}
	}
	for _, i := range g {
		sts[i].FakeDiscarded += fakes
	}
	return nil
}

// mergePlain is the clear-text half of q_merge for the selections g, which
// share one non-sensitive bin: it filters its tuples down to each
// selection's matches.
func (o *Owner) mergePlain(plain []relation.Tuple, g []int, matches []func(relation.Value) bool, sts []*QueryStats, out [][]relation.Tuple) {
	for _, i := range g {
		sts[i].PlainTuples = len(plain)
	}
	for _, t := range plain {
		v := t.Values[o.attrIdx]
		for _, i := range g {
			if matches[i](v) {
				out[i] = append(out[i], t)
			} else {
				sts[i].BinDiscarded++
			}
		}
	}
}

// AggOp is an aggregation operator for QueryAggregate.
type AggOp int

const (
	// AggCount counts matching tuples.
	AggCount AggOp = iota
	// AggSum sums an integer column over the matches.
	AggSum
	// AggMin and AggMax take extrema of an integer column.
	AggMin
	AggMax
)

// QueryAggregate evaluates a group-by-style aggregate over the selection
// attr = w (the paper notes QB "can also be extended to support group-by
// aggregation queries"): the bins are retrieved exactly as for a selection
// — so the adversarial view is unchanged — and the aggregate is computed
// owner-side over the filtered matches.
func (o *Owner) QueryAggregate(w relation.Value, col string, op AggOp) (int64, error) {
	// Column resolution and query execution happen under one read lock so
	// the column index can never go stale against the tuples a concurrent
	// re-Outsource with a different schema would return.
	o.mu.RLock()
	if o.bins == nil || o.server == nil {
		o.mu.RUnlock()
		return 0, ErrNotOutsourced
	}
	ci, ok := o.schema.ColumnIndex(col)
	if !ok {
		o.mu.RUnlock()
		return 0, fmt.Errorf("owner: no column %q", col)
	}
	if op != AggCount && o.schema.Columns[ci].Kind != relation.KindInt {
		o.mu.RUnlock()
		return 0, fmt.Errorf("owner: column %q is not integer-valued", col)
	}
	tuples, view, err := o.selectLocked(w, &QueryStats{})
	o.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	o.RecordView(view)
	switch op {
	case AggCount:
		return int64(len(tuples)), nil
	case AggSum:
		var sum int64
		for _, t := range tuples {
			sum += t.Values[ci].Int()
		}
		return sum, nil
	case AggMin, AggMax:
		if len(tuples) == 0 {
			return 0, fmt.Errorf("owner: aggregate over empty selection")
		}
		best := tuples[0].Values[ci].Int()
		for _, t := range tuples[1:] {
			v := t.Values[ci].Int()
			if (op == AggMin && v < best) || (op == AggMax && v > best) {
				best = v
			}
		}
		return best, nil
	default:
		return 0, fmt.Errorf("owner: unknown aggregate op %d", op)
	}
}

// JoinPair is one result row of an owner-side equi-join: the two matching
// tuples.
type JoinPair struct {
	Left  relation.Tuple
	Right relation.Tuple
}

// Join computes the equi-join of this relation with other on their
// searchable attributes, entirely through QB retrievals: the join values
// known to both owners, in sorted order, run as one QueryBatch on each
// relation and the matches are paired owner-side. The adversarial views
// remain bin-shaped on both relations, and each view log is the one a
// sequential Query loop over the sorted values would leave, so the join
// leaks no more than the constituent selections.
func (o *Owner) Join(other *Owner) ([]JoinPair, error) {
	// Join candidates: values present in both relations' metadata. Each
	// side is snapshotted under its own read lock, released before the
	// queries run (QueryBatch re-acquires it).
	side := func(ow *Owner) (map[string]relation.Value, bool) {
		ow.mu.RLock()
		defer ow.mu.RUnlock()
		if ow.bins == nil {
			return nil, false
		}
		s := make(map[string]relation.Value, len(ow.sensCounts)+len(ow.nsCounts))
		for _, counts := range []map[string]*relation.ValueCount{ow.sensCounts, ow.nsCounts} {
			for k, vc := range counts {
				s[k] = vc.Value
			}
		}
		return s, true
	}
	l, ok := side(o)
	if !ok {
		return nil, ErrNotOutsourced
	}
	r, ok := side(other)
	if !ok {
		return nil, ErrNotOutsourced
	}
	var values []relation.Value
	for k, v := range l {
		if _, ok := r[k]; ok {
			values = append(values, v)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i].Less(values[j]) })

	left, _, err := o.QueryBatch(values, 0)
	if err != nil {
		return nil, err
	}
	right, _, err := other.QueryBatch(values, 0)
	if err != nil {
		return nil, err
	}
	var out []JoinPair
	for i := range values {
		for _, lt := range left[i] {
			for _, rt := range right[i] {
				out = append(out, JoinPair{Left: lt, Right: rt})
			}
		}
	}
	return out, nil
}
