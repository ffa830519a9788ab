package owner

import (
	mrand "math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/workload"
)

func seededOpts(seed uint64) core.Options {
	return core.Options{Rand: mrand.New(mrand.NewPCG(seed, seed+1))}
}

func newNoInd(t *testing.T) technique.Technique {
	t.Helper()
	tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("owner test")))
	if err != nil {
		t.Fatal(err)
	}
	return tech
}

func employeeOwner(t *testing.T) (*Owner, *relation.Relation) {
	t.Helper()
	emp := workload.Employee()
	o := New(newNoInd(t), "EId")
	if err := o.Outsource(emp.Clone(), workload.EmployeeSensitive, seededOpts(42)); err != nil {
		t.Fatal(err)
	}
	return o, emp
}

// groundTruth computes σ_{attr=w}(R) over the original relation.
func groundTruth(t *testing.T, r *relation.Relation, attr string, w relation.Value) []int {
	t.Helper()
	ts, err := r.Select(attr, w)
	if err != nil {
		t.Fatal(err)
	}
	return relation.IDs(ts)
}

func TestQueryNotOutsourced(t *testing.T) {
	o := New(newNoInd(t), "EId")
	if _, _, err := o.Query(relation.Str("E101")); err != ErrNotOutsourced {
		t.Fatalf("err = %v, want ErrNotOutsourced", err)
	}
	if _, _, err := o.QueryNaive(relation.Str("E101")); err != ErrNotOutsourced {
		t.Fatalf("naive err = %v", err)
	}
	if err := o.Insert(relation.Tuple{}, true); err != ErrNotOutsourced {
		t.Fatalf("insert err = %v", err)
	}
	if _, _, err := o.QueryRange(relation.Int(0), relation.Int(1)); err != ErrNotOutsourced {
		t.Fatalf("range err = %v", err)
	}
}

func TestOutsourceBadAttr(t *testing.T) {
	o := New(newNoInd(t), "Nope")
	if err := o.Outsource(workload.Employee(), workload.EmployeeSensitive, seededOpts(1)); err == nil {
		t.Fatal("missing attribute accepted")
	}
}

// TestEmployeeCompleteness runs Example 1 end to end: every EId query via
// QB must return exactly the tuples of the unpartitioned relation.
func TestEmployeeCompleteness(t *testing.T) {
	o, emp := employeeOwner(t)
	for _, eid := range []string{"E101", "E259", "E199", "E152", "E254", "E159"} {
		w := relation.Str(eid)
		got, st, err := o.Query(w)
		if err != nil {
			t.Fatalf("Query(%s): %v", eid, err)
		}
		want := groundTruth(t, emp, "EId", w)
		if !reflect.DeepEqual(relation.IDs(got), want) {
			t.Errorf("Query(%s) ids = %v, want %v", eid, relation.IDs(got), want)
		}
		if st.Result != len(want) {
			t.Errorf("Query(%s) stats.Result = %d, want %d", eid, st.Result, len(want))
		}
	}
}

func TestEmployeeNaiveCompleteness(t *testing.T) {
	o, emp := employeeOwner(t)
	for _, eid := range []string{"E101", "E259", "E199"} {
		w := relation.Str(eid)
		got, _, err := o.QueryNaive(w)
		if err != nil {
			t.Fatal(err)
		}
		want := groundTruth(t, emp, "EId", w)
		if !reflect.DeepEqual(relation.IDs(got), want) {
			t.Errorf("QueryNaive(%s) ids = %v, want %v", eid, relation.IDs(got), want)
		}
	}
}

func TestQueryAbsentValue(t *testing.T) {
	o, _ := employeeOwner(t)
	got, st, err := o.Query(relation.Str("E999"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || st.Result != 0 {
		t.Fatalf("absent value returned %d tuples", len(got))
	}
}

// TestCompletenessAllTechniques runs a generated skewed dataset through
// every technique and checks query answers against ground truth.
func TestCompletenessAllTechniques(t *testing.T) {
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 400, DistinctValues: 40, Alpha: 0.4, ZipfS: 1.4,
		AssocFraction: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ks := crypto.DeriveKeys([]byte("all techniques"))
	builders := map[string]func() (technique.Technique, error){
		"noind":  func() (technique.Technique, error) { return technique.NewNoInd(ks) },
		"det":    func() (technique.Technique, error) { return technique.NewDetIndex(ks) },
		"arx":    func() (technique.Technique, error) { return technique.NewArx(ks) },
		"shamir": func() (technique.Technique, error) { return technique.NewShamirScan(ks, 3, 2) },
		"dpfpir": func() (technique.Technique, error) { return technique.NewDPFPIR(ks) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			tech, err := build()
			if err != nil {
				t.Fatal(err)
			}
			o := New(tech, workload.Attr)
			if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(9)); err != nil {
				t.Fatal(err)
			}
			for _, v := range ds.Values[:20] {
				got, _, err := o.Query(v)
				if err != nil {
					t.Fatalf("Query(%v): %v", v, err)
				}
				want := groundTruth(t, ds.Relation, workload.Attr, v)
				if !reflect.DeepEqual(relation.IDs(got), want) {
					t.Fatalf("Query(%v) ids = %v, want %v", v, relation.IDs(got), want)
				}
			}
		})
	}
}

func TestFakeTuplesAreDiscardedAndInvisible(t *testing.T) {
	// Skewed counts force padding; queries must never return fakes.
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 300, DistinctValues: 20, Alpha: 0.5, ZipfS: 2.0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := New(newNoInd(t), workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(5)); err != nil {
		t.Fatal(err)
	}
	if o.Bins().TotalFakeTuples() == 0 {
		t.Skip("no padding needed for this dataset; skew too mild")
	}
	sawFake := false
	for _, v := range ds.Values {
		got, st, err := o.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		want := groundTruth(t, ds.Relation, workload.Attr, v)
		if !reflect.DeepEqual(relation.IDs(got), want) {
			t.Fatalf("Query(%v) ids = %v, want %v", v, relation.IDs(got), want)
		}
		if st.FakeDiscarded > 0 {
			sawFake = true
		}
	}
	if !sawFake {
		t.Error("padding exists but no query ever fetched a fake tuple")
	}
}

func TestEqualVolumePerSensitiveBin(t *testing.T) {
	// Every sensitive retrieval must return the same number of encrypted
	// tuples (real + fake) — the size-attack defence.
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 500, DistinctValues: 30, Alpha: 0.5, ZipfS: 1.8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := New(newNoInd(t), workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(13)); err != nil {
		t.Fatal(err)
	}
	volume := -1
	for _, v := range ds.Values {
		_, st, err := o.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		if st.Enc.ReturnedAddrs == nil {
			continue
		}
		n := len(st.Enc.ReturnedAddrs)
		if volume == -1 {
			volume = n
		} else if n != volume {
			t.Fatalf("sensitive retrieval volumes differ: %d vs %d", n, volume)
		}
	}
	if volume <= 0 {
		t.Fatal("no sensitive retrievals observed")
	}
}

func TestInsertNonSensitive(t *testing.T) {
	o, emp := employeeOwner(t)
	nt := relation.Tuple{ID: 100, Values: []relation.Value{
		relation.Str("E777"), relation.Str("New"), relation.Str("Person"),
		relation.Int(777), relation.Int(9), relation.Str("Design"),
	}}
	if err := o.Insert(nt, false); err != nil {
		t.Fatal(err)
	}
	got, _, err := o.Query(relation.Str("E777"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 100 {
		t.Fatalf("inserted tuple not found: %v", got)
	}
	// Old values still answer correctly.
	got, _, err = o.Query(relation.Str("E259"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(relation.IDs(got), groundTruth(t, emp, "EId", relation.Str("E259"))) {
		t.Errorf("post-insert Query(E259) = %v", relation.IDs(got))
	}
}

func TestInsertSensitiveKeepsVolumesEqual(t *testing.T) {
	o, _ := employeeOwner(t)
	st := relation.Tuple{ID: 101, Values: []relation.Value{
		relation.Str("E888"), relation.Str("Secret"), relation.Str("Agent"),
		relation.Int(888), relation.Int(1), relation.Str("Defense"),
	}}
	if err := o.Insert(st, true); err != nil {
		t.Fatal(err)
	}
	got, _, err := o.Query(relation.Str("E888"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 101 {
		t.Fatalf("sensitive insert not found: %v", got)
	}
	// All sensitive retrievals keep uniform volume.
	volume := -1
	for _, eid := range []string{"E101", "E259", "E152", "E159", "E888"} {
		_, qst, err := o.Query(relation.Str(eid))
		if err != nil {
			t.Fatal(err)
		}
		n := len(qst.Enc.ReturnedAddrs)
		if volume == -1 {
			volume = n
		} else if n != volume {
			t.Fatalf("volumes differ after insert: %d vs %d", n, volume)
		}
	}
}

func TestQueryRange(t *testing.T) {
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 200, DistinctValues: 50, Alpha: 0.3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := New(newNoInd(t), workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(19)); err != nil {
		t.Fatal(err)
	}
	lo, hi := relation.Int(10), relation.Int(20)
	got, _, err := o.QueryRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Relation.SelectRange(workload.Attr, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
		t.Fatalf("range ids = %v, want %v", relation.IDs(got), relation.IDs(want))
	}
	// Swapped bounds behave identically.
	got2, _, err := o.QueryRange(hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(relation.IDs(got2), relation.IDs(want)) {
		t.Error("swapped bounds differ")
	}
}

func TestJoin(t *testing.T) {
	// Two small relations sharing EId-like keys, each over a NoInd whose
	// store counts column pulls.
	mk := func(name string, keys []int64, sensEvery int) (*Owner, *relation.Relation, *countingStore) {
		s := relation.MustSchema(name,
			relation.Column{Name: "K", Kind: relation.KindInt},
			relation.Column{Name: "P", Kind: relation.KindInt},
		)
		r := relation.New(s)
		for i, k := range keys {
			r.MustInsert(relation.Int(k), relation.Int(int64(i)))
		}
		cs := &countingStore{EncryptedStore: storage.NewEncryptedStore()}
		tech, err := technique.NewNoIndOn(crypto.DeriveKeys([]byte("owner test")), cs)
		if err != nil {
			t.Fatal(err)
		}
		o := New(tech, "K")
		pred := func(tp relation.Tuple) bool { return int(tp.Values[0].Int())%sensEvery == 0 }
		if err := o.Outsource(r.Clone(), pred, seededOpts(23)); err != nil {
			t.Fatal(err)
		}
		return o, r, cs
	}
	left, lr, lcs := mk("L", []int64{1, 2, 3, 4, 5, 5}, 2)
	right, rr, rcs := mk("R", []int64{3, 4, 5, 6, 7}, 3)
	pairs, err := left.Join(right)
	if err != nil {
		t.Fatal(err)
	}
	// One batch per side: each side's encrypted column is pulled once per
	// join, not once per join value.
	if l, r := lcs.attrPulls.Load(), rcs.attrPulls.Load(); l != 1 || r != 1 {
		t.Errorf("join pulled the left column %d times and the right %d, want once each", l, r)
	}
	// Expected: keys 3, 4, 5 match; key 5 appears twice on the left.
	want := 0
	for _, lt := range lr.Tuples {
		for _, rt := range rr.Tuples {
			if lt.Values[0].Equal(rt.Values[0]) {
				want++
			}
		}
	}
	if len(pairs) != want {
		t.Fatalf("join returned %d pairs, want %d", len(pairs), want)
	}
	for _, p := range pairs {
		if !p.Left.Values[0].Equal(p.Right.Values[0]) {
			t.Errorf("join pair keys differ: %v vs %v", p.Left.Values[0], p.Right.Values[0])
		}
	}

	// The pair order does not depend on map iteration.
	again, err := left.Join(right)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, pairs) {
		t.Errorf("two joins returned different pair orders:\n%v\n%v", pairs, again)
	}

	// Each side's view log of a join is a sequential Query loop's over the
	// sorted join values.
	values := []relation.Value{relation.Int(3), relation.Int(4), relation.Int(5)}
	for _, o := range []*Owner{left, right} {
		joined := len(o.Server().Views())
		for _, v := range values {
			if _, _, err := o.Query(v); err != nil {
				t.Fatal(err)
			}
		}
		views := o.Server().Views()
		joinViews, seqViews := views[joined-len(values):joined], views[joined:]
		for i := range values {
			jv, sv := joinViews[i], seqViews[i]
			jv.QueryID, sv.QueryID = 0, 0
			if !reflect.DeepEqual(jv, sv) {
				t.Errorf("%s view %d: join %+v, sequential %+v", o.schema.Name, i, jv, sv)
			}
		}
	}
}

func TestQueryAggregate(t *testing.T) {
	// Values 0..9, value v has v+1 tuples with payload column P = v*10+i.
	s := relation.MustSchema("Agg",
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindInt},
		relation.Column{Name: "S", Kind: relation.KindString},
	)
	r := relation.New(s)
	for v := int64(0); v < 10; v++ {
		for i := int64(0); i <= v; i++ {
			r.MustInsert(relation.Int(v), relation.Int(v*10+i), relation.Str("x"))
		}
	}
	o := New(newNoInd(t), "K")
	pred := func(tp relation.Tuple) bool { return tp.Values[0].Int()%2 == 0 }
	if err := o.Outsource(r.Clone(), pred, seededOpts(55)); err != nil {
		t.Fatal(err)
	}
	cnt, err := o.QueryAggregate(relation.Int(4), "P", AggCount)
	if err != nil || cnt != 5 {
		t.Errorf("count = %d, %v; want 5", cnt, err)
	}
	sum, err := o.QueryAggregate(relation.Int(4), "P", AggSum)
	if err != nil || sum != 40+41+42+43+44 {
		t.Errorf("sum = %d, %v", sum, err)
	}
	minV, err := o.QueryAggregate(relation.Int(4), "P", AggMin)
	if err != nil || minV != 40 {
		t.Errorf("min = %d, %v", minV, err)
	}
	maxV, err := o.QueryAggregate(relation.Int(4), "P", AggMax)
	if err != nil || maxV != 44 {
		t.Errorf("max = %d, %v", maxV, err)
	}
	if _, err := o.QueryAggregate(relation.Int(4), "missing", AggSum); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := o.QueryAggregate(relation.Int(4), "S", AggSum); err == nil {
		t.Error("sum over string column accepted")
	}
	if _, err := o.QueryAggregate(relation.Int(999), "P", AggMin); err == nil {
		t.Error("min over empty selection accepted")
	}
	if _, err := o.QueryAggregate(relation.Int(4), "P", AggOp(99)); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestReversedModeEndToEnd(t *testing.T) {
	// More sensitive than non-sensitive values.
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 300, DistinctValues: 60, Alpha: 0.85, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := New(newNoInd(t), workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, seededOpts(31)); err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Values[:30] {
		got, _, err := o.Query(v)
		if err != nil {
			t.Fatal(err)
		}
		want := groundTruth(t, ds.Relation, workload.Attr, v)
		if !reflect.DeepEqual(relation.IDs(got), want) {
			t.Fatalf("reversed Query(%v) = %v, want %v", v, relation.IDs(got), want)
		}
	}
}
