package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation micro-benchmarks for the design choices
// DESIGN.md calls out. Run everything with
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks print their tables once (so `-bench` output
// doubles as the reproduction report) and then time the underlying
// operation.

import (
	"fmt"
	mrand "math/rand/v2"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/crypto"
	"repro/internal/experiments"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/technique"
	"repro/internal/wire"
	"repro/internal/workload"
)

var printOnce sync.Once

func printTables(b *testing.B, tables ...*experiments.Table) {
	b.Helper()
	for _, t := range tables {
		t.Fprint(os.Stdout)
	}
}

// BenchmarkFigure6a times the analytical η model and prints the Figure 6a
// series once.
func BenchmarkFigure6a(b *testing.B) {
	printOnce.Do(func() { printTables(b, experiments.Figure6a()) })
	p := costmodel.Params{Alpha: 0.6, Beta: 1000, Gamma: 25000, Rho: 0.1, D: 4_500_000, SB: 1000, NSB: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Eta()
	}
}

// BenchmarkFigure6b measures η experimentally at a laptop-friendly scale
// and reports it as a custom metric.
func BenchmarkFigure6b(b *testing.B) {
	spec := experiments.Fig6bSpec{Sizes: []int{20_000}, Alphas: []float64{0.3}, Queries: 3, Seed: 1}
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Figure6b(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTables(b, tab)
}

// BenchmarkFigure6c sweeps the bin-size imbalance.
func BenchmarkFigure6c(b *testing.B) {
	spec := experiments.Fig6cSpec{Tuples: 20_000, DistinctValues: 1_600, Queries: 3, Seed: 2}
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Figure6c(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTables(b, tab)
}

// BenchmarkTablesIIandIII regenerates the Example 2 adversarial views.
func BenchmarkTablesIIandIII(b *testing.B) {
	var naive, qb *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		naive, qb, err = experiments.TablesIIandIII()
		if err != nil {
			b.Fatal(err)
		}
	}
	printTables(b, naive, qb)
}

// BenchmarkTable4SurvivingMatches regenerates the Example 3 / Figure 4
// surviving-matches analysis.
func BenchmarkTable4SurvivingMatches(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.TableIVandFigure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	printTables(b, tab)
}

// BenchmarkFigure5 regenerates the fake-tuple minimisation comparison.
func BenchmarkFigure5(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.FigureV()
	}
	printTables(b, tab)
}

// BenchmarkTableVI regenerates the QB x Opaque/Jana timing table from the
// calibrated cost models.
func BenchmarkTableVI(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.TableVI()
		if err != nil {
			b.Fatal(err)
		}
	}
	printTables(b, tab)
}

// BenchmarkSecurityAblation regenerates the §VI attack matrix.
func BenchmarkSecurityAblation(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.SecurityAblation(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTables(b, tab)
}

// BenchmarkMetadataSizes regenerates the TPC-H metadata-size table.
func BenchmarkMetadataSizes(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.MetadataSizes(5_000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTables(b, tab)
}

// --- Ablation micro-benchmarks ---------------------------------------------

func benchDataset(b *testing.B, tuples int, alpha float64) *workload.Dataset {
	b.Helper()
	ds, err := workload.Generate(workload.GenSpec{
		Tuples: tuples, DistinctValues: tuples / 10, Alpha: alpha,
		AssocFraction: 0.5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchOwner(b *testing.B, ds *workload.Dataset, tech technique.Technique, pred relation.Predicate) *owner.Owner {
	b.Helper()
	o := owner.New(tech, workload.Attr)
	opts := core.Options{Rand: mrand.New(mrand.NewPCG(1, 2))}
	if err := o.Outsource(ds.Relation.Clone(), pred, opts); err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkQueryQBvsFull contrasts a QB query (sensitive partition only
// encrypted) with a query over the fully encrypted dataset, per technique —
// the headline speedup.
func BenchmarkQueryQBvsFull(b *testing.B) {
	ds := benchDataset(b, 20_000, 0.3)
	ks := crypto.DeriveKeys([]byte("bench"))
	queries := workload.QueryStream(ds, workload.QuerySpec{Queries: 64, Seed: 3})

	for _, mode := range []string{"QB", "full-encryption"} {
		pred := ds.Sensitive
		if mode == "full-encryption" {
			pred = func(relation.Tuple) bool { return true }
		}
		tech, err := technique.NewNoInd(ks)
		if err != nil {
			b.Fatal(err)
		}
		o := benchOwner(b, ds, tech, pred)
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := o.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryPerTechnique times one QB query under each cryptographic
// technique.
func BenchmarkQueryPerTechnique(b *testing.B) {
	ds := benchDataset(b, 5_000, 0.3)
	ks := crypto.DeriveKeys([]byte("bench2"))
	queries := workload.QueryStream(ds, workload.QuerySpec{Queries: 64, Seed: 4})
	techs := map[string]func() (technique.Technique, error){
		"NoInd":    func() (technique.Technique, error) { return technique.NewNoInd(ks) },
		"DetIndex": func() (technique.Technique, error) { return technique.NewDetIndex(ks) },
		"Arx":      func() (technique.Technique, error) { return technique.NewArx(ks) },
		"Shamir":   func() (technique.Technique, error) { return technique.NewShamirScan(ks, 3, 2) },
	}
	for name, mk := range techs {
		tech, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		o := benchOwner(b, ds, tech, ds.Sensitive)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := o.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBinCreation times Algorithm 1 across metadata sizes — the
// owner-side setup cost.
func BenchmarkBinCreation(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000, 100_000} {
		sens := make([]relation.ValueCount, n/2)
		nonsens := make([]relation.ValueCount, n)
		for i := range sens {
			sens[i] = relation.ValueCount{Value: relation.Int(int64(i)), Count: 1 + i%7}
		}
		for i := range nonsens {
			nonsens[i] = relation.ValueCount{Value: relation.Int(int64(i)), Count: 1 + i%5}
		}
		b.Run(fmt.Sprintf("values=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{Rand: mrand.New(mrand.NewPCG(uint64(i), 7))}
				if _, err := core.CreateBins(sens, nonsens, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBinRetrieval times Algorithm 2 (a metadata lookup).
func BenchmarkBinRetrieval(b *testing.B) {
	sens := make([]relation.ValueCount, 10_000)
	nonsens := make([]relation.ValueCount, 10_000)
	for i := range sens {
		sens[i] = relation.ValueCount{Value: relation.Int(int64(i)), Count: 1}
		nonsens[i] = relation.ValueCount{Value: relation.Int(int64(i)), Count: 1}
	}
	bins, err := core.CreateBins(sens, nonsens, core.Options{Rand: mrand.New(mrand.NewPCG(1, 2))})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bins.Retrieve(relation.Int(int64(i % 10_000))); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkNearestSquareAblation compares the per-query retrieval volume
// with and without the nearest-square extension on an awkward domain size
// (prime |NS|) — the design choice of §IV-A's "simple extension".
func BenchmarkNearestSquareAblation(b *testing.B) {
	const nNS = 9973 // prime: exact factorisation degenerates to (9973, 1)
	sens := make([]relation.ValueCount, 4000)
	nonsens := make([]relation.ValueCount, nNS)
	for i := range sens {
		sens[i] = relation.ValueCount{Value: relation.Int(int64(i)), Count: 1}
	}
	for i := range nonsens {
		nonsens[i] = relation.ValueCount{Value: relation.Int(int64(i)), Count: 1}
	}
	for _, disable := range []bool{false, true} {
		name := "nearest-square"
		if disable {
			name = "exact-factors"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{
				Rand:                 mrand.New(mrand.NewPCG(1, 2)),
				DisableNearestSquare: disable,
			}
			bins, err := core.CreateBins(sens, nonsens, opts)
			if err != nil {
				b.Fatal(err)
			}
			volume := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ret, _ := bins.Retrieve(relation.Int(int64(i % 4000)))
				volume = len(ret.SensValues) + len(ret.NSValues)
			}
			b.ReportMetric(float64(volume), "values/query")
		})
	}
}

// BenchmarkDPF times key generation plus a full-domain evaluation of the
// distributed point function (one PIR query's cloud-side work).
func BenchmarkDPF(b *testing.B) {
	for _, n := range []int{256, 4096} {
		bits := crypto.DPFDomainBits(n)
		b.Run(fmt.Sprintf("domain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k0, _, err := crypto.DPFGen(uint64(i%n), bits, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := crypto.DPFEvalAll(k0, n, bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryDPFPIR times a QB query under the access-pattern-hiding
// two-server PIR technique.
func BenchmarkQueryDPFPIR(b *testing.B) {
	ds := benchDataset(b, 2_000, 0.3)
	tech, err := technique.NewDPFPIR(crypto.DeriveKeys([]byte("bench5")))
	if err != nil {
		b.Fatal(err)
	}
	o := benchOwner(b, ds, tech, ds.Sensitive)
	queries := workload.QueryStream(ds, workload.QuerySpec{Queries: 16, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteQuery measures the wire-protocol overhead: the same QB
// query against an in-process cloud vs a cloud behind TCP loopback.
func BenchmarkRemoteQuery(b *testing.B) {
	ds := benchDataset(b, 5_000, 0.3)
	queries := workload.QueryStream(ds, workload.QuerySpec{Queries: 16, Seed: 9})

	run := func(b *testing.B, o *owner.Owner) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, _, err := o.Query(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("local", func(b *testing.B) {
		tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("bench6")))
		if err != nil {
			b.Fatal(err)
		}
		run(b, benchOwner(b, ds, tech, ds.Sensitive))
	})
	b.Run("tcp-loopback", func(b *testing.B) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer lis.Close()
		go func() { _ = wire.NewCloud().Serve(lis) }()
		c, err := wire.Dial(lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		conn := c.WithStore(wire.DefaultStore)
		tech, err := technique.NewNoIndOn(crypto.DeriveKeys([]byte("bench7")), conn)
		if err != nil {
			b.Fatal(err)
		}
		o := owner.New(tech, workload.Attr)
		o.SetCloudBackend(conn)
		opts := core.Options{Rand: mrand.New(mrand.NewPCG(1, 2))}
		if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, o)
	})
}

// BenchmarkQueryBatch measures batch-engine throughput on the default
// employee workload: a 512-selection batch over the Figure 1 relation,
// sequential vs QueryBatch at 1, 4 and GOMAXPROCS workers. The custom
// queries/sec metric is the headline. Two effects separate the
// sub-benchmarks: QueryBatch shares the technique's column pull across
// the whole batch (visible even at workers=1 on one core), and extra
// workers parallelise the plaintext fan-out on multi-core.
func BenchmarkQueryBatch(b *testing.B) {
	tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("bench8")))
	if err != nil {
		b.Fatal(err)
	}
	o := owner.New(tech, "EId")
	opts := core.Options{Rand: mrand.New(mrand.NewPCG(1, 2))}
	if err := o.Outsource(workload.Employee(), workload.EmployeeSensitive, opts); err != nil {
		b.Fatal(err)
	}
	eids := []relation.Value{
		relation.Str("E101"), relation.Str("E259"), relation.Str("E199"),
		relation.Str("E152"), relation.Str("E254"), relation.Str("E159"),
	}
	const batch = 512
	ws := make([]relation.Value, batch)
	for i := range ws {
		ws[i] = eids[i%len(eids)]
	}
	qps := func(b *testing.B) {
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range ws {
				if _, _, err := o.Query(w); err != nil {
					b.Fatal(err)
				}
			}
			o.Server().ResetViews() // bound the view log across iterations
		}
		qps(b)
	})
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(workerCounts)
	for _, workers := range slices.Compact(workerCounts) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := o.QueryBatch(ws, workers); err != nil {
					b.Fatal(err)
				}
				o.Server().ResetViews()
			}
			qps(b)
		})
	}
}

// BenchmarkShamirShareSplit times the secret-sharing substrate.
func BenchmarkShamirShareSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := crypto.SplitSecret(uint64(i), 3, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbabilisticEncrypt times the AES-GCM substrate on a 200-byte
// row (the paper's TPC-H Customer row size).
func BenchmarkProbabilisticEncrypt(b *testing.B) {
	p, err := crypto.NewProbabilistic(crypto.DeriveKeys([]byte("bench3")).Enc)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]byte, 200)
	b.SetBytes(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encrypt(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsert times the insert extension for non-sensitive tuples with
// existing values (no re-binning, no padding). Sensitive inserts
// additionally cost O(#bins) fake tuples each to keep bin volumes equal —
// an unbounded steady-state amplification that the InsertCost experiment
// measures at a fixed insert count instead (benchmarking it at large b.N
// would grow the store without bound).
func BenchmarkInsert(b *testing.B) {
	ds := benchDataset(b, 5_000, 0.3)
	tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("bench4")))
	if err != nil {
		b.Fatal(err)
	}
	o := benchOwner(b, ds, tech, ds.Sensitive)
	schema := ds.Relation.Schema
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := make([]relation.Value, schema.Arity())
		for j := range vals {
			vals[j] = relation.Int(0)
		}
		vals[0] = relation.Int(int64(i % 500))
		if err := o.Insert(relation.Tuple{ID: 1 << 21, Values: vals}, false); err != nil {
			b.Fatal(err)
		}
	}
}
