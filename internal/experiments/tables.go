package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/technique"
	"repro/internal/workload"
)

// renderView renders one adversarial view row the way Tables II-V do:
// E(tX) for encrypted tuples (by cloud address) and the plaintext tuple ids
// for the non-sensitive side.
func renderView(v cloud.View) (enc, plain string) {
	if len(v.EncResultAddrs) == 0 {
		enc = "null"
	} else {
		addrs := append([]int(nil), v.EncResultAddrs...)
		sort.Ints(addrs)
		parts := make([]string, len(addrs))
		for i, a := range addrs {
			parts[i] = fmt.Sprintf("E(#%d)", a)
		}
		enc = strings.Join(parts, ",")
	}
	if len(v.PlainResults) == 0 {
		plain = "null"
	} else {
		parts := make([]string, len(v.PlainResults))
		for i, t := range v.PlainResults {
			parts[i] = fmt.Sprintf("t%d", t.ID+1) // the paper numbers tuples from 1
		}
		plain = strings.Join(parts, ",")
	}
	return enc, plain
}

// TablesIIandIII replays Example 2 on the Employee relation: first naively
// (Table II, leaking each employee's classification), then through QB
// (Table III, every view covering whole bins).
func TablesIIandIII() (naive, qb *Table, err error) {
	queries := []string{"E259", "E101", "E199"}

	run := func(useQB bool) (*Table, error) {
		tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("table2")))
		if err != nil {
			return nil, err
		}
		o := owner.New(tech, "EId")
		if err := o.Outsource(workload.Employee(), workload.EmployeeSensitive, binOpts(42)); err != nil {
			return nil, err
		}
		for _, q := range queries {
			if useQB {
				_, _, err = o.Query(relation.Str(q))
			} else {
				_, _, err = o.QueryNaive(relation.Str(q))
			}
			if err != nil {
				return nil, err
			}
		}
		title := "Table II: adversarial views, naive partitioned execution"
		if useQB {
			title = "Table III: adversarial views under QB"
		}
		t := &Table{
			Title:  title,
			Header: []string{"query", "plaintext predicates", "encrypted results", "plaintext results"},
		}
		for i, v := range o.Server().Views() {
			enc, plain := renderView(v)
			preds := make([]string, len(v.PlainValues))
			for j, pv := range v.PlainValues {
				preds[j] = pv.String()
			}
			t.AddRow(queries[i], strings.Join(preds, ","), enc, plain)
		}
		return t, nil
	}

	naive, err = run(false)
	if err != nil {
		return nil, nil, err
	}
	qb, err = run(true)
	return naive, qb, err
}

// TableIVandFigure4 reproduces Example 3 and the surviving-matches
// analysis: 10 sensitive and 10 non-sensitive values (5 associated), all
// values queried, and the observed bin-association graph reported. A
// complete bipartite graph is Figure 4a; the dropped count for naive
// execution is Figure 4b.
func TableIVandFigure4() (*Table, error) {
	// Build the Example 3 relation: values 0..9 sensitive, values 0..4
	// also non-sensitive, plus 5 exclusively non-sensitive values 100..104.
	s := relation.MustSchema("Example3",
		relation.Column{Name: "K", Kind: relation.KindInt},
		relation.Column{Name: "P", Kind: relation.KindInt},
	)
	rel := relation.New(s)
	sens := make(map[int]bool)
	var values []relation.Value
	for v := 0; v < 10; v++ {
		id := rel.MustInsert(relation.Int(int64(v)), relation.Int(0))
		sens[id] = true
		values = append(values, relation.Int(int64(v)))
	}
	for v := 0; v < 5; v++ {
		rel.MustInsert(relation.Int(int64(v)), relation.Int(1))
	}
	for v := 100; v < 105; v++ {
		rel.MustInsert(relation.Int(int64(v)), relation.Int(1))
		values = append(values, relation.Int(int64(v)))
	}
	pred := func(tp relation.Tuple) bool { return sens[tp.ID] }

	run := func(useQB bool) (*adversary.BinGraph, error) {
		tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("table4")))
		if err != nil {
			return nil, err
		}
		o := owner.New(tech, "K")
		if err := o.Outsource(rel.Clone(), pred, binOpts(11)); err != nil {
			return nil, err
		}
		for _, v := range values {
			if useQB {
				_, _, err = o.Query(v)
			} else {
				_, _, err = o.QueryNaive(v)
			}
			if err != nil {
				return nil, err
			}
		}
		return adversary.AnalyzeViews(o.Server().Views()), nil
	}

	qb, err := run(true)
	if err != nil {
		return nil, err
	}
	naive, err := run(false)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table IV/V + Figure 4: surviving matches of bins (Example 3: 10 sensitive, 10 non-sensitive values)",
		Header: []string{"execution", "sens footprints", "ns footprints", "edges", "complete bipartite", "dropped matches"},
		Notes:  "complete bipartite = Figure 4a (secure); dropped matches = Figure 4b (leaky)",
	}
	for _, r := range []struct {
		name string
		g    *adversary.BinGraph
	}{{"QB (Algorithm 2)", qb}, {"naive retrieval", naive}} {
		t.AddRow(r.name,
			fmt.Sprintf("%d", len(r.g.SensGroups)), fmt.Sprintf("%d", len(r.g.NSGroups)),
			fmt.Sprintf("%d", r.g.Edges()),
			fmt.Sprintf("%v", r.g.IsCompleteBipartite()), fmt.Sprintf("%d", r.g.DroppedMatches()))
	}
	return t, nil
}

// FigureV compares sensitive-value-to-bin assignment strategies on the
// Example 5 workload (9 values with 10..90 tuples, 3 bins) by the number of
// fake tuples each needs: the contiguous split of Figure 5a, naive
// round-robin, and the §IV-B greedy allocation (Figure 5b).
func FigureV() *Table {
	counts := []int{10, 20, 30, 40, 50, 60, 70, 80, 90}
	const bins = 3

	fakesFor := func(assign func() [][]int) int {
		vols := make([]int, bins)
		for b, vals := range assign() {
			for _, c := range vals {
				vols[b] += c
			}
		}
		maxVol := 0
		for _, v := range vols {
			if v > maxVol {
				maxVol = v
			}
		}
		total := 0
		for _, v := range vols {
			total += maxVol - v
		}
		return total
	}

	contiguous := func() [][]int {
		return [][]int{counts[0:3], counts[3:6], counts[6:9]}
	}
	roundRobin := func() [][]int {
		out := make([][]int, bins)
		for i, c := range counts {
			out[i%bins] = append(out[i%bins], c)
		}
		return out
	}
	greedy := func() [][]int {
		// Descending greedy least-loaded, the §IV-B strategy.
		sorted := append([]int(nil), counts...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		out := make([][]int, bins)
		vols := make([]int, bins)
		for _, c := range sorted {
			best := 0
			for b := 1; b < bins; b++ {
				if len(out[b]) < 3 && (len(out[best]) >= 3 || vols[b] < vols[best]) {
					best = b
				}
			}
			out[best] = append(out[best], c)
			vols[best] += c
		}
		return out
	}

	t := &Table{
		Title:  "Figure 5: fake tuples needed per assignment strategy (9 values, 10..90 tuples, 3 bins)",
		Header: []string{"strategy", "fake tuples"},
		Notes:  "paper: contiguous (Fig 5a) needs 270; the greedy allocation (Fig 5b) minimises padding",
	}
	t.AddRow("contiguous (Figure 5a)", fmt.Sprintf("%d", fakesFor(contiguous)))
	t.AddRow("round-robin", fmt.Sprintf("%d", fakesFor(roundRobin)))
	t.AddRow("greedy least-loaded (Figure 5b)", fmt.Sprintf("%d", fakesFor(greedy)))
	return t
}

// TableVI reproduces the QB x Opaque / Jana timing table: per-query time at
// sensitivity 1-60% using the calibrated cost models (Opaque: 89 s full
// scan over 6M tuples; Jana: 1051 s over 1M tuples). With QB only the
// sensitive partition is scanned obliviously.
func TableVI() (*Table, error) {
	ks := crypto.DeriveKeys([]byte("table6"))
	opq, err := technique.NewSimOpaque(ks)
	if err != nil {
		return nil, err
	}
	jana, err := technique.NewSimJana(ks)
	if err != nil {
		return nil, err
	}
	sensitivities := []float64{0.01, 0.05, 0.20, 0.40, 0.60}

	t := &Table{
		Title:  "Table VI: time (seconds) when mixing QB with Opaque and Jana",
		Header: []string{"technique", "1%", "5%", "20%", "40%", "60%", "no-QB (100%)"},
		Notes:  "simulated via calibrated cost models; paper rows shown for comparison",
	}
	row := func(name string, sim *technique.Simulated, total int) {
		cells := []string{name}
		for _, a := range sensitivities {
			d := sim.SimulateFullScan(int(a * float64(total)))
			cells = append(cells, fmt.Sprintf("%.0f", d.Seconds()))
		}
		cells = append(cells, fmt.Sprintf("%.0f", sim.SimulateFullScan(total).Seconds()))
		t.AddRow(cells...)
	}
	row("SGX-based Opaque (6M tuples)", opq, 6_000_000)
	t.AddRow("  paper", "11", "15", "26", "42", "59", "89")
	row("MPC-based Jana (1M tuples)", jana, 1_000_000)
	t.AddRow("  paper", "22", "80", "270", "505", "749", "1051")
	return t, nil
}

// MetadataSizes reports the owner-side binning metadata for a TPC-H style
// LINEITEM sample, the quantity §V-B reports (13.6 MB for L_PARTKEY, 0.65
// MB for L_SUPPKEY at full scale): metadata grows with the attribute's
// domain, not the database size.
func MetadataSizes(tuples int, seed int64) (*Table, error) {
	ds, err := workload.LineItem(workload.TPCHSpec{Tuples: tuples, Alpha: 0.3, Seed: seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Owner-side metadata size (TPC-H style LINEITEM)",
		Header: []string{"attribute", "distinct values", "metadata bytes"},
		Notes:  "metadata is proportional to the attribute domain, independent of |DB|",
	}
	for _, attr := range []string{"L_PARTKEY", "L_SUPPKEY"} {
		rs, rns := relation.Partition(ds.Relation, ds.Sensitive)
		sc, err := rs.DistinctCounts(attr)
		if err != nil {
			return nil, err
		}
		nc, err := rns.DistinctCounts(attr)
		if err != nil {
			return nil, err
		}
		bins, err := core.CreateBins(sc, nc, binOpts(uint64(seed)))
		if err != nil {
			return nil, err
		}
		t.AddRow(attr, fmt.Sprintf("%d", len(sc)+len(nc)), fmt.Sprintf("%d", bins.MetadataBytes()))
	}
	return t, nil
}

// InsertCost measures the extension experiment from the full version: the
// cost of inserts, including re-binning when the value is new.
func InsertCost(tuples int, inserts int, seed int64) (*Table, error) {
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: tuples, DistinctValues: tuples / 10, Alpha: 0.4, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("insert")))
	if err != nil {
		return nil, err
	}
	o := owner.New(tech, workload.Attr)
	if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, binOpts(uint64(seed))); err != nil {
		return nil, err
	}
	schema := ds.Relation.Schema

	makeTuple := func(id int, v int64) relation.Tuple {
		vals := make([]relation.Value, schema.Arity())
		for i := range vals {
			vals[i] = relation.Int(0)
		}
		vals[0] = relation.Int(v)
		return relation.Tuple{ID: id, Values: vals}
	}

	t := &Table{
		Title:  "Insert cost (full-version extension)",
		Header: []string{"kind", "inserts", "total time", "per insert"},
	}
	// Existing values: no re-binning.
	start := time.Now()
	for i := 0; i < inserts; i++ {
		if err := o.Insert(makeTuple(1_000_000+i, int64(i%(tuples/10))), i%2 == 0); err != nil {
			return nil, err
		}
	}
	d := time.Since(start)
	t.AddRow("existing values", fmt.Sprintf("%d", inserts),
		d.Round(time.Microsecond).String(), (d / time.Duration(inserts)).Round(time.Microsecond).String())

	// New values: force re-binning.
	start = time.Now()
	for i := 0; i < inserts; i++ {
		if err := o.Insert(makeTuple(2_000_000+i, int64(10_000_000+i)), i%2 == 0); err != nil {
			return nil, err
		}
	}
	d = time.Since(start)
	t.AddRow("new values (re-binning)", fmt.Sprintf("%d", inserts),
		d.Round(time.Microsecond).String(), (d / time.Duration(inserts)).Round(time.Microsecond).String())
	return t, nil
}
