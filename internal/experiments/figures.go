package experiments

import (
	"fmt"
	mrand "math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/technique"
	"repro/internal/workload"
)

func binOpts(seed uint64) core.Options {
	return core.Options{Rand: mrand.New(mrand.NewPCG(seed, seed^0xa5a5a5a5))}
}

// Figure6a reproduces the analytical efficiency graph: η as a function of γ
// for α ∈ {0.3, 0.6, 0.9, 1} at ρ = 10%, using η = α + ρ(|SB|+|NSB|)/γ.
func Figure6a() *Table {
	alphas := []float64{0.3, 0.6, 0.9, 1.0}
	gammas := []float64{100, 1000, 5000, 10000, 20000, 30000, 40000, 50000}
	const rho = 0.10
	const nNS = 1_000_000
	series := costmodel.Figure6aSeries(alphas, gammas, rho, nNS)

	t := &Table{
		Title:  "Figure 6a: eta vs gamma (rho=10%, |SB|=|NSB|=sqrt(|NS|))",
		Header: []string{"gamma", "alpha=0.3", "alpha=0.6", "alpha=0.9", "alpha=1.0"},
		Notes:  "eta < 1 means QB beats full encryption; eta -> alpha as gamma grows",
	}
	for i, g := range gammas {
		row := []string{fmt.Sprintf("%.0f", g)}
		for _, a := range alphas {
			row = append(row, f3(series[a][i].Y))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig6bSpec parameterises the experimental η measurement.
type Fig6bSpec struct {
	// Sizes are the dataset tuple counts (the paper uses 150K, 1.5M,
	// 4.5M; tests use smaller sizes).
	Sizes []int
	// Alphas are the sensitivity fractions to sweep.
	Alphas []float64
	// Queries is the number of measured queries per point.
	Queries int
	// Seed fixes data generation and binning.
	Seed int64
}

// DefaultFig6b returns the configuration used by cmd/qbbench (scaled down
// 10x from the paper so a laptop run finishes in minutes; pass -full for
// the paper sizes).
func DefaultFig6b() Fig6bSpec {
	return Fig6bSpec{
		Sizes:   []int{15_000, 150_000, 450_000},
		Alphas:  []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Queries: 5,
		Seed:    1,
	}
}

// fig6bPasses is how many times Figure6b runs each arm's query stream.
const fig6bPasses = 3

// Figure6b measures η experimentally: the wall-clock of a QB query (NoInd
// over the sensitive partition + indexed plaintext search) divided by the
// wall-clock of the same query over a fully encrypted dataset, for several
// database sizes and sensitivities. η < 1 for every size reproduces the
// robustness claim.
//
// Both owners are built first. The two arms then run the same query stream
// alternately, fig6bPasses passes each, and η is the ratio of their fastest
// passes, so a burst of outside load that slows one pass cannot decide η.
func Figure6b(spec Fig6bSpec) (*Table, error) {
	t := &Table{
		Title:  "Figure 6b: measured eta vs alpha per dataset size (NoInd technique)",
		Header: []string{"tuples", "alpha", "t_QB/query", "t_full/query", "eta"},
		Notes:  "NoInd = non-deterministic encryption with owner-side attribute decryption (systems A/B)",
	}
	for _, size := range spec.Sizes {
		for _, alpha := range spec.Alphas {
			ds, err := workload.Generate(workload.GenSpec{
				Tuples:         size,
				DistinctValues: size / 10,
				Alpha:          alpha,
				AssocFraction:  0.5,
				Seed:           spec.Seed,
			})
			if err != nil {
				return nil, err
			}
			// Arm 0 is QB; arm 1 is full encryption: every tuple is sensitive.
			var arms [2]*owner.Owner
			for i, pred := range []relation.Predicate{ds.Sensitive, func(relation.Tuple) bool { return true }} {
				tech, err := technique.NewNoInd(crypto.DeriveKeys([]byte("fig6b")))
				if err != nil {
					return nil, err
				}
				arms[i] = owner.New(tech, workload.Attr)
				if err := arms[i].Outsource(ds.Relation.Clone(), pred, binOpts(uint64(spec.Seed))); err != nil {
					return nil, err
				}
			}
			queries := workload.QueryStream(ds, workload.QuerySpec{Queries: spec.Queries, Seed: spec.Seed + 7})
			var best [2]time.Duration
			for pass := 0; pass < fig6bPasses; pass++ {
				for i, o := range arms {
					d, err := avgQueryTime(o, queries)
					if err != nil {
						return nil, err
					}
					if pass == 0 || d < best[i] {
						best[i] = d
					}
				}
			}
			tQB, tFull := best[0], best[1]
			eta := float64(tQB) / float64(tFull)
			t.AddRow(fmt.Sprintf("%d", size), f2(alpha),
				tQB.Round(time.Microsecond).String(),
				tFull.Round(time.Microsecond).String(),
				f3(eta))
		}
	}
	return t, nil
}

// avgQueryTime runs queries once through o and returns the mean wall-clock
// per query.
func avgQueryTime(o *owner.Owner, queries []relation.Value) (time.Duration, error) {
	start := time.Now()
	for _, q := range queries {
		if _, _, err := o.Query(q); err != nil {
			return 0, err
		}
	}
	if len(queries) == 0 {
		return 0, nil
	}
	return time.Since(start) / time.Duration(len(queries)), nil
}

// Fig6cSpec parameterises the bin-size sweep.
type Fig6cSpec struct {
	// Tuples and DistinctValues size the dataset.
	Tuples, DistinctValues int
	// Queries per point.
	Queries int
	// Seed fixes generation.
	Seed int64
}

// DefaultFig6c returns the configuration used by cmd/qbbench.
func DefaultFig6c() Fig6cSpec {
	return Fig6cSpec{Tuples: 60_000, DistinctValues: 3_600, Queries: 8, Seed: 2}
}

// Figure6c measures average selection time as a function of the imbalance
// between the sensitive and non-sensitive bin sizes, by forcing the number
// of sensitive bins away from the optimal sqrt split. The minimum lands at
// |SB| = |NSB| (imbalance 0), the paper's optimality claim.
func Figure6c(spec Fig6cSpec) (*Table, error) {
	ds, err := workload.Generate(workload.GenSpec{
		Tuples:         spec.Tuples,
		DistinctValues: spec.DistinctValues,
		Alpha:          0.5,
		AssocFraction:  1.0,
		Seed:           spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Count distinct sensitive values to derive bin shapes.
	rs, _ := relation.Partition(ds.Relation, ds.Sensitive)
	sCounts, err := rs.DistinctCounts(workload.Attr)
	if err != nil {
		return nil, err
	}
	nSens := len(sCounts)

	t := &Table{
		Title:  "Figure 6c: avg selection time vs ||SB|-|NSB|| bin-size imbalance",
		Header: []string{"sens bins", "|SB|", "|NSB|", "imbalance", "time/query"},
		Notes:  "minimum expected at |SB| = |NSB| = sqrt(|NS|)",
	}
	opt := core.NearestSquareRoot(nSens)
	for _, x := range []int{opt / 8, opt / 4, opt / 2, opt, opt * 2, opt * 4, opt * 8} {
		if x < 1 || x > nSens {
			continue
		}
		// An indexable technique makes the per-query cost proportional to
		// the number of predicates and retrieved tuples (|SB| + |NSB|),
		// which is what the bin-size tradeoff governs; a scan-based
		// technique would flatten the curve under its fixed scan cost.
		tech, err := technique.NewDetIndex(crypto.DeriveKeys([]byte("fig6c")))
		if err != nil {
			return nil, err
		}
		o := owner.New(tech, workload.Attr)
		opts := binOpts(uint64(spec.Seed))
		opts.ForcedBinCount = x
		if err := o.Outsource(ds.Relation.Clone(), ds.Sensitive, opts); err != nil {
			return nil, err
		}
		sbSize := (nSens + x - 1) / x
		nsbSize := x
		imb := sbSize - nsbSize
		if imb < 0 {
			imb = -imb
		}
		queries := workload.QueryStream(ds, workload.QuerySpec{Queries: spec.Queries, Seed: spec.Seed + 3})
		start := time.Now()
		for _, q := range queries {
			if _, _, err := o.Query(q); err != nil {
				return nil, err
			}
		}
		avg := time.Since(start) / time.Duration(len(queries))
		t.AddRow(fmt.Sprintf("%d", x), fmt.Sprintf("%d", sbSize), fmt.Sprintf("%d", nsbSize),
			fmt.Sprintf("%d", imb), avg.Round(time.Microsecond).String())
	}
	return t, nil
}
