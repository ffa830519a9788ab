package technique

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/relation"
)

func testKeys() *crypto.KeySet { return crypto.DeriveKeys([]byte("technique test key")) }

// allTechniques builds one instance of every technique for table-driven
// tests.
func allTechniques(t *testing.T) map[string]Technique {
	t.Helper()
	ks := testKeys()
	noind, err := NewNoInd(ks)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetIndex(ks)
	if err != nil {
		t.Fatal(err)
	}
	arx, err := NewArx(ks)
	if err != nil {
		t.Fatal(err)
	}
	sham, err := NewShamirScan(ks, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	opq, err := NewSimOpaque(ks)
	if err != nil {
		t.Fatal(err)
	}
	jana, err := NewSimJana(ks)
	if err != nil {
		t.Fatal(err)
	}
	pir, err := NewDPFPIR(ks)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Technique{
		"noind": noind, "det": det, "arx": arx, "shamir": sham,
		"opaque": opq, "jana": jana, "dpfpir": pir,
	}
}

// testRows builds rows for values 0..9, value v appearing v+1 times, with a
// recognisable payload.
func testRows() []Row {
	var rows []Row
	for v := 0; v < 10; v++ {
		for i := 0; i <= v; i++ {
			rows = append(rows, Row{
				Payload: []byte(fmt.Sprintf("v=%d#%d", v, i)),
				Attr:    relation.Int(int64(v)),
			})
		}
	}
	return rows
}

func TestTechniquesRoundTrip(t *testing.T) {
	for name, tech := range allTechniques(t) {
		t.Run(name, func(t *testing.T) {
			rows := testRows()
			st, err := tech.Outsource(rows)
			if err != nil {
				t.Fatal(err)
			}
			if st == nil || tech.StoredRows() != len(rows) {
				t.Fatalf("stored %d rows, want %d", tech.StoredRows(), len(rows))
			}
			// Search for values 3 and 7: expect 4 + 8 = 12 payloads.
			got, sst, err := tech.Search([]relation.Value{relation.Int(3), relation.Int(7)})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 12 {
				t.Fatalf("%s returned %d payloads, want 12", tech.Name(), len(got))
			}
			var names []string
			for _, p := range got {
				names = append(names, string(p))
			}
			sort.Strings(names)
			for _, n := range names {
				if n[:3] != "v=3" && n[:3] != "v=7" {
					t.Errorf("stray payload %q", n)
				}
			}
			if tech.Name() == "DPF-PIR" {
				// PIR hides the access pattern entirely.
				if len(sst.ReturnedAddrs) != 0 {
					t.Errorf("DPF-PIR leaked %d addresses", len(sst.ReturnedAddrs))
				}
			} else if len(sst.ReturnedAddrs) != 12 {
				t.Errorf("ReturnedAddrs = %d, want 12", len(sst.ReturnedAddrs))
			}
			if sst.EncOps <= 0 || sst.TuplesTransferred <= 0 {
				t.Errorf("suspicious stats %+v", sst)
			}
			// Absent value yields nothing.
			got, _, err = tech.Search([]relation.Value{relation.Int(999)})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Errorf("absent value returned %d payloads", len(got))
			}
		})
	}
}

func TestNoIndScansEverything(t *testing.T) {
	tech, err := NewNoInd(testKeys())
	if err != nil {
		t.Fatal(err)
	}
	if tech.Indexable() {
		t.Error("NoInd claims to be indexable")
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	_, st, err := tech.Search([]relation.Value{relation.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesScanned != 55 {
		t.Errorf("scanned %d, want all 55", st.TuplesScanned)
	}
	if st.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", st.Rounds)
	}
}

func TestDetIndexProbesOnly(t *testing.T) {
	tech, err := NewDetIndex(testKeys())
	if err != nil {
		t.Fatal(err)
	}
	if !tech.Indexable() {
		t.Error("DetIndex not indexable")
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	_, st, err := tech.Search([]relation.Value{relation.Int(9)})
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesScanned != 10 {
		t.Errorf("scanned %d, want just the 10 matches", st.TuplesScanned)
	}
	// Deterministic tokens: equal plaintexts share a token in the store.
	hist := make(map[string]int)
	for _, r := range tech.Store().Rows() {
		hist[string(r.Token)]++
	}
	if len(hist) != 10 {
		t.Errorf("token groups = %d, want 10 (one per value)", len(hist))
	}
}

func TestArxTokensAllDistinctAtRest(t *testing.T) {
	tech, err := NewArx(testKeys())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range tech.Store().Rows() {
		if seen[string(r.Token)] {
			t.Fatal("Arx store has duplicate tokens")
		}
		seen[string(r.Token)] = true
	}
	if tech.Histogram(relation.Int(9)) != 10 {
		t.Errorf("histogram(9) = %d, want 10", tech.Histogram(relation.Int(9)))
	}
}

func TestShamirScanHidesAccessPatternInScan(t *testing.T) {
	tech, err := NewShamirScan(testKeys(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	_, st, err := tech.Search([]relation.Value{relation.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesScanned != 55*3 {
		t.Errorf("scanned %d, want 165 (full scan on 3 clouds)", st.TuplesScanned)
	}
	if _, err := NewShamirScan(testKeys(), 1, 1); err == nil {
		t.Error("degenerate sharing accepted")
	}
}

func TestSimulatedCostCalibration(t *testing.T) {
	ks := testKeys()
	opq, err := NewSimOpaque(ks)
	if err != nil {
		t.Fatal(err)
	}
	// 6M tuples at the calibrated rate must give ~89 s.
	got := opq.SimulateFullScan(6_000_000).Seconds()
	if got < 88 || got > 90 {
		t.Errorf("Opaque full-scan simulation = %vs, want ~89", got)
	}
	jana, err := NewSimJana(ks)
	if err != nil {
		t.Fatal(err)
	}
	got = jana.SimulateFullScan(1_000_000).Seconds()
	if got < 1040 || got > 1060 {
		t.Errorf("Jana full-scan simulation = %vs, want ~1051", got)
	}
	// Search must charge SimulatedTime proportional to rows scanned.
	if _, err := opq.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	_, st, err := opq.Search([]relation.Value{relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := opq.FixedCost() + opq.PerTupleCost()*55
	if st.SimulatedTime != want {
		t.Errorf("SimulatedTime = %v, want %v", st.SimulatedTime, want)
	}
}

// TestSimulatedBatchChargesEveryQuery: a simulated batch shares a
// repeated bin's real work but not its charge. Every query pays the full
// fixed plus per-tuple cost its Search pays, and the batch's
// SimulatedTime is the sum of those charges.
func TestSimulatedBatchChargesEveryQuery(t *testing.T) {
	for _, build := range []func(*crypto.KeySet) (*Simulated, error){NewSimOpaque, NewSimJana} {
		sim, err := build(testKeys())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sim.Name(), func(t *testing.T) {
			if _, err := sim.Outsource(testRows()); err != nil {
				t.Fatal(err)
			}
			bins := [][]relation.Value{{relation.Int(1), relation.Int(5)}, {relation.Int(4)}, {}}
			var queries [][]relation.Value
			for _, b := range []int{0, 1, 0, 2, 0, 1} {
				queries = append(queries, bins[b])
			}
			_, agg, err := sim.SearchBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			var sum time.Duration
			for i, q := range queries {
				_, st, err := sim.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := sim.FixedCost() + sim.PerTupleCost()*55; st.SimulatedTime != want {
					t.Fatalf("Search(%v) charged %v, want %v", q, st.SimulatedTime, want)
				}
				if got := agg.PerQuery[i].SimulatedTime; got != st.SimulatedTime {
					t.Errorf("query %d (%v) charged %v in the batch, %v alone", i, q, got, st.SimulatedTime)
				}
				sum += st.SimulatedTime
			}
			if agg.SimulatedTime != sum {
				t.Errorf("batch SimulatedTime = %v, want the sum of its Search charges %v", agg.SimulatedTime, sum)
			}
		})
	}
}

func TestStatsAdd(t *testing.T) {
	a := &Stats{Rounds: 1, EncOps: 2, TuplesScanned: 3, TuplesTransferred: 4, BytesTransferred: 5, ReturnedAddrs: []int{1}}
	b := &Stats{Rounds: 10, EncOps: 20, TuplesScanned: 30, TuplesTransferred: 40, BytesTransferred: 50, ReturnedAddrs: []int{2, 3}}
	a.Add(b)
	if a.Rounds != 11 || a.EncOps != 22 || a.TuplesScanned != 33 ||
		a.TuplesTransferred != 44 || a.BytesTransferred != 55 || len(a.ReturnedAddrs) != 3 {
		t.Errorf("Add = %+v", a)
	}
}
