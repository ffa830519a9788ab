package repro

import (
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

func seed(v uint64) *uint64 { return &v }

func employeeClient(t *testing.T, tech Technique) *Client {
	t.Helper()
	c, err := NewClient(Config{
		MasterKey: []byte("client test master key"),
		Attr:      "EId",
		Technique: tech,
		Seed:      seed(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Outsource(workload.Employee(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(Config{Attr: "K"}); err == nil {
		t.Error("missing master key accepted")
	}
	if _, err := NewClient(Config{MasterKey: []byte("k")}); err == nil {
		t.Error("missing attr accepted")
	}
	if _, err := NewClient(Config{MasterKey: []byte("k"), Attr: "K", Technique: Technique(99)}); err == nil {
		t.Error("unknown technique accepted")
	}
}

func TestTechniqueString(t *testing.T) {
	names := map[Technique]string{
		TechNoInd: "NoInd", TechDetIndex: "DetIndex", TechArx: "Arx",
		TechShamir: "ShamirScan", TechSimOpaque: "SimOpaque", TechSimJana: "SimJana",
		Technique(99): "Technique(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestClientQueryAllTechniques(t *testing.T) {
	emp := workload.Employee()
	for _, tech := range []Technique{TechNoInd, TechDetIndex, TechArx, TechShamir, TechDPFPIR} {
		t.Run(tech.String(), func(t *testing.T) {
			c := employeeClient(t, tech)
			for _, eid := range []string{"E101", "E259", "E199", "E152"} {
				got, err := c.Query(Str(eid))
				if err != nil {
					t.Fatal(err)
				}
				want, err := emp.Select("EId", Str(eid))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
					t.Errorf("Query(%s) = %v, want %v", eid, relation.IDs(got), relation.IDs(want))
				}
			}
		})
	}
}

func TestClientQueryWithStats(t *testing.T) {
	c := employeeClient(t, TechNoInd)
	got, st, err := c.QueryWithStats(Str("E259"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || st.Result != 2 {
		t.Errorf("E259 result = %d tuples, stats %+v", len(got), st)
	}
}

func TestClientNaiveAndViews(t *testing.T) {
	c := employeeClient(t, TechNoInd)
	if _, err := c.QueryNaive(Str("E101")); err != nil {
		t.Fatal(err)
	}
	views := c.AdversarialViews()
	if len(views) != 1 {
		t.Fatalf("views = %d", len(views))
	}
	if len(views[0].PlainValues) != 1 {
		t.Errorf("naive view predicates = %v", views[0].PlainValues)
	}
}

func TestClientBinning(t *testing.T) {
	c, err := NewClient(Config{MasterKey: []byte("k"), Attr: "EId"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Binning(); got != (BinningSummary{}) {
		t.Errorf("pre-outsource binning = %+v", got)
	}
	c = employeeClient(t, TechNoInd)
	b := c.Binning()
	if b.SensitiveBins != 2 || b.NonSensitiveBins != 2 {
		t.Errorf("employee binning = %+v, want 2x2 (paper example)", b)
	}
	if b.MetadataBytes <= 0 {
		t.Error("metadata bytes not positive")
	}
}

func TestClientInsertAndRange(t *testing.T) {
	c, err := NewClient(Config{
		MasterKey: []byte("k"), Attr: workload.Attr, Seed: seed(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: 300, DistinctValues: 30, Alpha: 0.4, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Outsource(ds.Relation.Clone(), ds.Sensitive); err != nil {
		t.Fatal(err)
	}
	got, err := c.QueryRange(Int(5), Int(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Relation.SelectRange(workload.Attr, Int(5), Int(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
		t.Errorf("range = %v, want %v", relation.IDs(got), relation.IDs(want))
	}
	nt := Tuple{ID: 9999, Values: make([]Value, ds.Relation.Schema.Arity())}
	for i := range nt.Values {
		nt.Values[i] = Int(0)
	}
	nt.Values[0] = Int(123456)
	if err := c.Insert(nt, true); err != nil {
		t.Fatal(err)
	}
	got, err = c.Query(Int(123456))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 9999 {
		t.Errorf("inserted tuple lookup = %v", got)
	}
}

// TestClientQueryAggregate: COUNT/SUM/MIN/MAX through the public client,
// in process and against a remote cloud, equal the same aggregate over
// the clear-text selection, and a column the aggregate cannot read is
// refused.
func TestClientQueryAggregate(t *testing.T) {
	emp := workload.Employee()
	office, _ := workload.EmployeeSchema.ColumnIndex("Office")
	for _, remote := range []bool{false, true} {
		cfg := Config{MasterKey: []byte("aggregate test"), Attr: "EId", Seed: seed(31)}
		if remote {
			cfg.CloudAddr = startRemoteCloud(t)
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
			t.Fatal(err)
		}
		for _, eid := range []string{"E101", "E259", "E152", "E254"} {
			sel, err := emp.Select("EId", Str(eid))
			if err != nil {
				t.Fatal(err)
			}
			want := map[AggOp]int64{AggCount: int64(len(sel)), AggMin: 1 << 62, AggMax: -1 << 62}
			for _, tp := range sel {
				v := tp.Values[office].Int()
				want[AggSum] += v
				want[AggMin], want[AggMax] = min(want[AggMin], v), max(want[AggMax], v)
			}
			for op, w := range want {
				if got, err := c.QueryAggregate(Str(eid), "Office", op); err != nil || got != w {
					t.Errorf("remote=%v: aggregate %d of %s = %d, %v; want %d", remote, op, eid, got, err, w)
				}
			}
		}
		if _, err := c.QueryAggregate(Str("E259"), "FirstName", AggSum); err == nil {
			t.Errorf("remote=%v: SUM over a string column accepted", remote)
		}
		if _, err := c.QueryAggregate(Str("E259"), "Missing", AggCount); err == nil {
			t.Errorf("remote=%v: aggregate over an unknown column accepted", remote)
		}
	}
}

// TestClientInsertRejectsBadTuple: Insert refuses a tuple of the wrong
// arity or with a value of the wrong kind, on either side of the
// partition, and the refusal leaves the client writable.
func TestClientInsertRejectsBadTuple(t *testing.T) {
	for _, remote := range []bool{false, true} {
		cfg := Config{MasterKey: []byte("insert test"), Attr: "EId", Seed: seed(32)}
		if remote {
			cfg.CloudAddr = startRemoteCloud(t)
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Outsource(workload.Employee(), workload.EmployeeSensitive); err != nil {
			t.Fatal(err)
		}
		bad := map[string][]Value{
			"arity": {Str("E900")},
			"kind":  {Str("E900"), Str("Zoe"), Str("Quinn"), Str("900"), Int(3), Str("Design")},
		}
		for name, vals := range bad {
			for _, sensitive := range []bool{false, true} {
				if err := c.Insert(Tuple{ID: 900, Values: vals}, sensitive); err == nil {
					t.Errorf("remote=%v: %s-mismatched tuple (sensitive=%v) accepted", remote, name, sensitive)
				}
			}
		}
		if got, err := c.Query(Str("E900")); err != nil || len(got) != 0 {
			t.Fatalf("remote=%v: refused inserts left %v, %v", remote, got, err)
		}
		good := Tuple{ID: 900, Values: []Value{Str("E900"), Str("Zoe"), Str("Quinn"), Int(900), Int(3), Str("Design")}}
		if err := c.Insert(good, false); err != nil {
			t.Fatalf("remote=%v: insert after refusals: %v", remote, err)
		}
		if got, err := c.Query(Str("E900")); err != nil || len(got) != 1 || got[0].ID != 900 {
			t.Fatalf("remote=%v: inserted tuple lookup = %v, %v", remote, got, err)
		}
	}
}

func TestClientJoin(t *testing.T) {
	mk := func(keys []int64) *Client {
		s := MustSchema("J",
			Column{Name: "K", Kind: KindInt},
			Column{Name: "P", Kind: KindInt},
		)
		r := NewRelation(s)
		for i, k := range keys {
			r.MustInsert(Int(k), Int(int64(i)))
		}
		c, err := NewClient(Config{MasterKey: []byte("jk"), Attr: "K", Seed: seed(3)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Outsource(r, func(tp Tuple) bool { return tp.Values[0].Int()%2 == 0 }); err != nil {
			t.Fatal(err)
		}
		return c
	}
	left := mk([]int64{1, 2, 3})
	right := mk([]int64{2, 3, 4})
	pairs, err := left.Join(right)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Errorf("join pairs = %d, want 2", len(pairs))
	}
}
