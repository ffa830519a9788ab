package owner

import (
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/technique"
)

// recordingTechnique keeps the payloads of the last Search call and, when
// corrupt is set, lets it rewrite them before the owner sees them.
type recordingTechnique struct {
	technique.Technique
	last    [][]byte
	corrupt func(payloads [][]byte)
}

func (r *recordingTechnique) Search(values []relation.Value) ([][]byte, *technique.Stats, error) {
	payloads, st, err := r.Technique.Search(values)
	if err != nil {
		return nil, nil, err
	}
	if r.corrupt != nil {
		r.corrupt(payloads)
	}
	r.last = payloads
	return payloads, st, nil
}

// fullDecodeMerge is q_merge's encrypted half written the plain way:
// decode every payload, then drop the fakes and the non-matches. mergeEnc
// must agree with it on every well-formed payload set.
func fullDecodeMerge(t *testing.T, attrIdx int, payloads [][]byte, match func(relation.Value) bool) (kept []relation.Tuple, fakes, binDiscarded int) {
	t.Helper()
	for _, p := range payloads {
		tu, err := relation.DecodeTuple(p[1:])
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		switch {
		case p[0] == flagFake:
			fakes++
		case match(tu.Values[attrIdx]):
			kept = append(kept, tu)
		default:
			binDiscarded++
		}
	}
	return kept, fakes, binDiscarded
}

// randomOwner outsources a random relation searched on "K", of the given
// kind and at a random column, over a recording NoInd. Half the tuples
// are sensitive, so the sensitive bins are unequal and padded with fakes.
func randomOwner(t *testing.T, rnd *mrand.Rand, kind relation.Kind) (*Owner, *recordingTechnique, *relation.Relation, []relation.Value) {
	t.Helper()
	arity := 2 + rnd.IntN(3)
	attrAt := rnd.IntN(arity)
	cols := make([]relation.Column, arity)
	for i := range cols {
		cols[i] = relation.Column{Name: fmt.Sprintf("C%d", i), Kind: relation.Kind(rnd.IntN(2))}
	}
	cols[attrAt] = relation.Column{Name: "K", Kind: kind}
	r := relation.New(relation.MustSchema("Rand", cols...))

	domain := make([]relation.Value, 4+rnd.IntN(12))
	for i := range domain {
		if kind == relation.KindInt {
			domain[i] = relation.Int(int64(i*7 - 20))
		} else {
			domain[i] = relation.Str(fmt.Sprintf("v%02d", i))
		}
	}
	sensitive := make(map[int]bool)
	for n := 20 + rnd.IntN(60); n > 0; n-- {
		vals := make([]relation.Value, arity)
		for i, c := range cols {
			switch {
			case i == attrAt:
				vals[i] = domain[rnd.IntN(len(domain))]
			case c.Kind == relation.KindInt:
				vals[i] = relation.Int(rnd.Int64())
			default:
				vals[i] = relation.Str(fmt.Sprintf("s%d", rnd.IntN(1000)))
			}
		}
		id := r.MustInsert(vals...)
		sensitive[id] = rnd.IntN(2) == 0
	}

	rec := &recordingTechnique{Technique: newNoInd(t)}
	o := New(rec, "K")
	if err := o.Outsource(r.Clone(), func(tu relation.Tuple) bool { return sensitive[tu.ID] }, seededOpts(rnd.Uint64())); err != nil {
		t.Fatal(err)
	}
	return o, rec, r, domain
}

// TestMergeEncMatchesFullDecode: over random relations with fakes, Int
// and Str search attributes, equality selections and QueryRange, mergeEnc
// keeps the same tuples in the same order, and counts the same fakes and
// co-residents, as decoding every payload would; and the queries answer
// the ground truth.
func TestMergeEncMatchesFullDecode(t *testing.T) {
	var sawFakes, sawBinDiscards, sawKept int
	for trial := 0; trial < 40; trial++ {
		rnd := mrand.New(mrand.NewPCG(uint64(trial), 42))
		kind := relation.Kind(trial % 2)
		o, rec, r, domain := randomOwner(t, rnd, kind)

		check := func(name string, match func(relation.Value) bool, got []relation.Tuple, st *QueryStats, want []relation.Tuple) {
			t.Helper()
			if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
				t.Fatalf("trial %d %s: ids %v, want %v", trial, name, relation.IDs(got), relation.IDs(want))
			}
			if rec.last == nil {
				return
			}
			kept, fakes, binDiscarded := fullDecodeMerge(t, o.attrIdx, rec.last, match)
			var mst QueryStats
			merged, err := mergeOne(o, rec.last, match, &mst)
			if err != nil {
				t.Fatalf("trial %d %s: mergeEnc: %v", trial, name, err)
			}
			if !reflect.DeepEqual(merged, kept) || mst.FakeDiscarded != fakes || mst.BinDiscarded != binDiscarded {
				t.Fatalf("trial %d %s: mergeEnc kept %v (%d fakes, %d co-residents), full decode %v (%d, %d)",
					trial, name, merged, mst.FakeDiscarded, mst.BinDiscarded, kept, fakes, binDiscarded)
			}
			// The same payloads merged in one pass for this selection and
			// every domain value at once give each selection what merging
			// it alone gives.
			matches := []func(relation.Value) bool{match}
			for _, w := range domain {
				matches = append(matches, func(v relation.Value) bool { return v.Equal(w) })
			}
			g := make([]int, len(matches))
			sts := make([]*QueryStats, len(matches))
			for i := range matches {
				g[i], sts[i] = i, &QueryStats{}
			}
			grouped := make([][]relation.Tuple, len(matches))
			if err := o.mergeEnc(rec.last, g, matches, sts, grouped); err != nil {
				t.Fatalf("trial %d %s: grouped mergeEnc: %v", trial, name, err)
			}
			for i, m := range matches {
				kept, fakes, binDiscarded := fullDecodeMerge(t, o.attrIdx, rec.last, m)
				if !reflect.DeepEqual(grouped[i], kept) || sts[i].FakeDiscarded != fakes || sts[i].BinDiscarded != binDiscarded {
					t.Fatalf("trial %d %s: grouped selection %d kept %v (%d fakes, %d co-residents), full decode %v (%d, %d)",
						trial, name, i, grouped[i], sts[i].FakeDiscarded, sts[i].BinDiscarded, kept, fakes, binDiscarded)
				}
			}
			if st.FakeDiscarded != fakes {
				t.Fatalf("trial %d %s: query counted %d fakes, full decode %d", trial, name, st.FakeDiscarded, fakes)
			}
			sawFakes += fakes
			sawBinDiscards += binDiscarded
			sawKept += len(kept)
		}

		for _, w := range domain {
			rec.last = nil
			got, st, err := o.Query(w)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := r.Select("K", w)
			check("K = "+w.String(), func(v relation.Value) bool { return v.Equal(w) }, got, st, want)
		}
		for q := 0; q < 5; q++ {
			lo, hi := domain[rnd.IntN(len(domain))], domain[rnd.IntN(len(domain))]
			rec.last = nil
			got, st, err := o.QueryRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if hi.Less(lo) {
				lo, hi = hi, lo
			}
			want, _ := r.SelectRange("K", lo, hi)
			check(fmt.Sprintf("K in [%v, %v]", lo, hi), func(v relation.Value) bool {
				return v.Compare(lo) >= 0 && v.Compare(hi) <= 0
			}, got, st, want)
		}
	}
	if sawFakes == 0 || sawBinDiscards == 0 || sawKept == 0 {
		t.Fatalf("vacuous: %d fakes, %d co-residents, %d kept over all trials", sawFakes, sawBinDiscards, sawKept)
	}
}

// TestMergeEncRejectsCorruptPayloads: a payload that fails to decode fails
// the query with ErrCorrupt even when mergeEnc would have discarded it —
// a fake or a co-resident is checked whole, not just at the attribute —
// and so does a real tuple too short to carry the search attribute.
func TestMergeEncRejectsCorruptPayloads(t *testing.T) {
	// The first payload (in fetch order) that pick accepts is corrupted.
	type corruption struct {
		pick    func(fake, match bool) bool
		corrupt func(p []byte, attrIdx int) []byte
	}
	isFake := func(fake, _ bool) bool { return fake }
	isCoResident := func(fake, match bool) bool { return !fake && !match }
	isMatch := func(fake, match bool) bool { return !fake && match }
	truncate := func(p []byte, _ int) []byte { return p[:len(p)-1] }
	cases := map[string]corruption{
		"truncated fake":        {isFake, truncate},
		"truncated co-resident": {isCoResident, truncate},
		"trailing bytes":        {isCoResident, func(p []byte, _ int) []byte { return append(p, 0) }},
		"unknown kind byte": {isFake, func(p []byte, _ int) []byte {
			// The last value is an Int: kind byte and 8 bytes.
			p[len(p)-9] = 0x7F
			return p
		}},
		"arity short of the attribute": {isMatch, func(p []byte, attrIdx int) []byte {
			tu, _ := relation.DecodeTuple(p[1:])
			tu.Values = tu.Values[:attrIdx]
			return encodePayload(p[0], tu)
		}},
		"empty payload": {isCoResident, func([]byte, int) []byte { return nil }},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			// Search attribute last, so a short arity cannot reach it.
			r := relation.New(relation.MustSchema("R",
				relation.Column{Name: "P", Kind: relation.KindInt},
				relation.Column{Name: "K", Kind: relation.KindInt}))
			for i := 0; i < 40; i++ {
				r.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%8)))
			}
			rec := &recordingTechnique{Technique: newNoInd(t)}
			o := New(rec, "K")
			if err := o.Outsource(r, func(tu relation.Tuple) bool { return tu.Values[1].Int() < 5 && tu.ID%3 != 0 }, seededOpts(3)); err != nil {
				t.Fatal(err)
			}
			// Query the values one by one until one's bin has a payload
			// that fits the case.
			for k := int64(0); k < 8; k++ {
				w := relation.Int(k)
				hit := false
				rec.corrupt = func(payloads [][]byte) {
					for i, p := range payloads {
						tu, err := relation.DecodeTuple(p[1:])
						if err != nil {
							t.Fatal(err)
						}
						if !hit && c.pick(p[0] == flagFake, tu.Values[o.attrIdx].Equal(w)) {
							payloads[i] = c.corrupt(append([]byte(nil), p...), o.attrIdx)
							hit = true
						}
					}
				}
				_, _, err := o.Query(w)
				if !hit {
					continue
				}
				if !errors.Is(err, relation.ErrCorrupt) {
					t.Fatalf("query %v: err = %v, want ErrCorrupt", w, err)
				}
				return
			}
			t.Fatal("no sensitive bin holds a payload that fits the case")
		})
	}
}

// mergeOne runs mergeEnc for one selection, a group of one.
func mergeOne(o *Owner, payloads [][]byte, match func(relation.Value) bool, st *QueryStats) ([]relation.Tuple, error) {
	out := make([][]relation.Tuple, 1)
	err := o.mergeEnc(payloads, []int{0}, []func(relation.Value) bool{match}, []*QueryStats{st}, out)
	return out[0], err
}

// hotBin is one sensitive bin as q_merge receives it: n payloads over a
// two-column schema searched on column 0, of which kept match one of the
// k selection values ws, taken in turn; every fourth of the rest is a
// fake.
func hotBin(n, kept, k int) (o *Owner, payloads [][]byte, ws []relation.Value) {
	o = &Owner{attrIdx: 0}
	for j := 0; j < k; j++ {
		ws = append(ws, relation.Int(int64(7+j)))
	}
	for i := 0; i < n; i++ {
		flag, v := flagReal, relation.Int(int64(100+i%40))
		switch {
		case i%(n/kept) == 0 && i/(n/kept) < kept:
			v = ws[i/(n/kept)%k]
		case i%4 == 1:
			flag = flagFake
		}
		payloads = append(payloads, encodePayload(flag, relation.Tuple{ID: i + 1, Values: []relation.Value{v, relation.Int(int64(i))}}))
	}
	return o, payloads, ws
}

// TestMergeEncAllocations: merging a 1,000-row bin that keeps 25 tuples
// allocates for the 25 alone, whether one selection keeps them all or
// four selections sharing the bin keep them between them in one pass.
// Decoding every payload before looking at it costs about 135 KB here;
// the bound leaves room for the kept tuples' slab and the answer slices
// (about 4.4 KB) and no more.
func TestMergeEncAllocations(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("selections=%d", k), func(t *testing.T) {
			o, payloads, ws := hotBin(1000, 25, k)
			g := make([]int, k)
			matches := make([]func(relation.Value) bool, k)
			sts := make([]*QueryStats, k)
			out := make([][]relation.Tuple, k)
			for i, w := range ws {
				g[i], sts[i] = i, &QueryStats{}
				matches[i] = func(v relation.Value) bool { return v.Equal(w) }
			}
			merge := func() {
				for i := range g {
					out[i], *sts[i] = nil, QueryStats{}
				}
				if err := o.mergeEnc(payloads, g, matches, sts, out); err != nil {
					t.Fatal(err)
				}
				kept := 0
				for i, st := range sts {
					if len(out[i])+st.FakeDiscarded+st.BinDiscarded != 1000 {
						t.Fatalf("selection %d kept %d (%d fakes, %d co-residents) of 1,000", i, len(out[i]), st.FakeDiscarded, st.BinDiscarded)
					}
					kept += len(out[i])
				}
				if kept != 25 {
					t.Fatalf("merge kept %d tuples, want 25", kept)
				}
			}
			merge()
			const runs = 20
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				merge()
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / runs
			const bound = 8 << 10
			t.Logf("%d B allocated per merge of 1,000 payloads keeping 25 for %d selections; bound %d B", per, k, bound)
			if per > bound {
				t.Fatalf("mergeEnc allocates %d B per merge, above %d B", per, bound)
			}
		})
	}
}

// BenchmarkMergeEnc merges one hot bin: 1,000 payloads, 25 kept.
func BenchmarkMergeEnc(b *testing.B) {
	o, payloads, ws := hotBin(1000, 25, 1)
	match := func(v relation.Value) bool { return v.Equal(ws[0]) }
	b.ReportAllocs()
	for b.Loop() {
		var st QueryStats
		if _, err := mergeOne(o, payloads, match, &st); err != nil {
			b.Fatal(err)
		}
	}
}
