package main

import (
	"crypto/rand"
	"fmt"
	"math"
	mrand "math/rand/v2"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/wire"
	"repro/internal/workload"
)

// timeCall runs f in `batches` batches of n calls and returns the median
// batch's time per call: a preempted batch moves nothing.
func timeCall(batches, n int, f func()) time.Duration {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// microTuples sizes the in-process relation of the technique and η arms,
// and the domain of the DPF and Shamir calls.
const microTuples = 2000

// cryptoLayer times the primitives on fixed inputs: a payload the size of
// one encoded benchmark tuple and a domain the size of the micro relation.
func cryptoLayer(r *runResult) error {
	keys := crypto.DeriveKeys([]byte("qb bench micro key"))
	pt := append([]byte{0}, relation.EncodeTuple(sampleTuple())...)
	prob, err := crypto.NewProbabilistic(keys.Enc)
	if err != nil {
		return err
	}
	det, err := crypto.NewDeterministic(keys.Det, keys.Nonce)
	if err != nil {
		return err
	}
	ct, err := prob.Encrypt(pt)
	if err != nil {
		return err
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	var scratch []byte
	r.set("crypto.gcm_encrypt_ns", ns(timeCall(9, 2000, func() { _, err := prob.Encrypt(pt); note(err) })))
	r.set("crypto.gcm_decrypt_ns", ns(timeCall(9, 2000, func() {
		out, err := prob.DecryptAppend(scratch[:0], ct)
		scratch = out
		note(err)
	})))
	r.set("crypto.det_encrypt_ns", ns(timeCall(9, 2000, func() { det.Encrypt(pt) })))
	r.set("crypto.prf_ns", ns(timeCall(9, 2000, func() { crypto.PRF(keys.PRF, pt) })))
	arx := crypto.NewArxTokenizer(keys.Arx)
	r.set("crypto.arx_token_ns", ns(timeCall(9, 2000, func() { arx.Token(pt, 7) })))

	shares, err := crypto.SplitSecret(123456789, 3, 2, rand.Reader)
	if err != nil {
		return err
	}
	r.set("crypto.shamir_split_ns", ns(timeCall(9, 1000, func() { _, err := crypto.SplitSecret(123456789, 3, 2, rand.Reader); note(err) })))
	r.set("crypto.shamir_reconstruct_ns", ns(timeCall(9, 1000, func() { _, err := crypto.Reconstruct(shares[:2]); note(err) })))

	bits := crypto.DPFDomainBits(microTuples)
	k0, _, err := crypto.DPFGen(microTuples/2, bits, rand.Reader)
	if err != nil {
		return err
	}
	r.set("crypto.dpf_gen_us", us(timeCall(9, 100, func() { _, _, err := crypto.DPFGen(microTuples/2, bits, rand.Reader); note(err) })))
	r.set("crypto.dpf_evalall_us", us(timeCall(9, 10, func() { _, err := crypto.DPFEvalAll(k0, microTuples, bits); note(err) })))
	return failed
}

func sampleTuple() relation.Tuple {
	return relation.Tuple{ID: 123456, Values: []relation.Value{relation.Int(417), relation.Int(912837465)}}
}

// relationLayer times the tuple codec on one benchmark-shaped tuple.
func relationLayer(r *runResult) error {
	t := sampleTuple()
	enc := relation.EncodeTuple(t)
	var buf []byte
	var failed error
	r.set("relation.encode_tuple_ns", ns(timeCall(9, 5000, func() { buf = relation.AppendEncodeTuple(buf[:0], t) })))
	r.set("relation.decode_tuple_ns", ns(timeCall(9, 5000, func() {
		if _, err := relation.DecodeTuple(enc); err != nil {
			failed = err
		}
	})))
	return failed
}

// valueCounts splits a dataset's per-value counts by partition, the input
// of core.CreateBins.
func valueCounts(d *dataset) (sens, plain []relation.ValueCount) {
	for _, v := range d.values {
		if v.Sens > 0 {
			sens = append(sens, relation.ValueCount{Value: v.Value, Count: v.Sens})
		}
		if v.Plain > 0 {
			plain = append(plain, relation.ValueCount{Value: v.Value, Count: v.Plain})
		}
	}
	return sens, plain
}

// coreLayer times bin creation and retrieval on tenant 0's value counts.
func coreLayer(r *runResult, d *dataset, seed uint64) error {
	sens, plain := valueCounts(d)
	opts := func() core.Options {
		return core.Options{Rand: mrand.New(mrand.NewPCG(seed, seed^0x6a09e667f3bcc908))}
	}
	bins, err := core.CreateBins(sens, plain, opts())
	if err != nil {
		return err
	}
	var failed error
	r.set("core.createbins_ms", ms(timeCall(5, 3, func() {
		if _, err := core.CreateBins(sens, plain, opts()); err != nil {
			failed = err
		}
	})))
	i := 0
	r.set("core.retrieve_ns", ns(timeCall(9, 5000, func() {
		bins.Retrieve(d.values[i%len(d.values)].Value)
		i++
	})))
	r.set("core.metadata_kb", float64(bins.MetadataBytes())/1024)
	return failed
}

// pingLayer times the bare wire round trip, over TCP against the booted
// server and over an in-process pipe against a fresh wire.Cloud.
func pingLayer(r *runResult, addr string) error {
	tcp, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer tcp.Close()
	var failed error
	ping := func(c *wire.Client) func() {
		return func() {
			if err := c.Ping(); err != nil {
				failed = err
			}
		}
	}
	ping(tcp)() // handshake
	r.set("wire.ping_us", us(timeCall(9, 300, ping(tcp))))

	a, b := net.Pipe()
	go wire.NewCloud().ServeConn(b)
	pipe := wire.NewClient(a)
	defer pipe.Close()
	ping(pipe)()
	r.set("wire.ping_pipe_us", us(timeCall(9, 300, ping(pipe))))
	return failed
}

// techArm is one technique of the in-process arm.
type techArm struct {
	key   string
	build func(*crypto.KeySet) (technique.Technique, error)
}

var techArms = []techArm{
	{"noind", func(k *crypto.KeySet) (technique.Technique, error) { return technique.NewNoInd(k) }},
	{"detindex", func(k *crypto.KeySet) (technique.Technique, error) { return technique.NewDetIndex(k) }},
	{"arx", func(k *crypto.KeySet) (technique.Technique, error) { return technique.NewArx(k) }},
	{"shamir", func(k *crypto.KeySet) (technique.Technique, error) { return technique.NewShamirScan(k, 3, 2) }},
	{"simopaque", func(k *crypto.KeySet) (technique.Technique, error) { return technique.NewSimOpaque(k) }},
	{"simjana", func(k *crypto.KeySet) (technique.Technique, error) { return technique.NewSimJana(k) }},
	{"dpfpir", func(k *crypto.KeySet) (technique.Technique, error) { return technique.NewDPFPIR(k) }},
}

const (
	microQueries = 12 // single selections timed per technique and arm
	microBatch   = 32 // selections of the one timed QueryBatch
	armBudget    = 40 * time.Millisecond
)

// techniqueLayer runs all seven techniques in process on one fixed
// relation: search and batch cost under QB, and η — the cost of a QB
// query over the cost of the same query with every tuple encrypted, the
// method of experiments.Figure6b — next to what costmodel predicts from
// the measured unit costs. The simulated techniques charge virtual time;
// η counts it, the search and batch times are wall-clock only.
func techniqueLayer(r *runResult) error {
	ds, err := workload.Generate(workload.GenSpec{
		Name: "Micro", Tuples: microTuples, DistinctValues: microTuples / 20,
		Alpha: sensAlpha, AssocFraction: assocFraction, ExtraColumns: extraColumns, Seed: 1,
	})
	if err != nil {
		return err
	}
	queries := workload.QueryStream(ds, workload.QuerySpec{Queries: microQueries, ZipfS: zipfS, Seed: 2})
	batch := workload.QueryStream(ds, workload.QuerySpec{Queries: microBatch, ZipfS: zipfS, Seed: 3})
	everything := func(relation.Tuple) bool { return true }

	// Unit costs the model needs besides the encrypted scan: one
	// clear-text predicate search and one tuple moved to the owner.
	_, rns := relation.Partition(ds.Relation, ds.Sensitive)
	ps, err := storage.NewPlainStore(rns, workload.Attr)
	if err != nil {
		return err
	}
	one := []relation.Value{queries[0]}
	tPlain := timeCall(9, 500, func() { ps.Search(one) })
	tup := sampleTuple()
	enc := relation.EncodeTuple(tup)
	tMove := timeCall(9, 2000, func() { relation.DecodeTuple(relation.AppendEncodeTuple(enc[:0], tup)) })

	for _, arm := range techArms {
		qb, bins, err := microOwner(arm, ds, ds.Sensitive)
		if err != nil {
			return fmt.Errorf("%s: %w", arm.key, err)
		}
		full, _, err := microOwner(arm, ds, everything)
		if err != nil {
			return fmt.Errorf("%s (all sensitive): %w", arm.key, err)
		}
		wallQB, costQB, err := queryCost(qb, queries)
		if err != nil {
			return fmt.Errorf("%s: %w", arm.key, err)
		}
		_, costFull, err := queryCost(full, queries)
		if err != nil {
			return fmt.Errorf("%s (all sensitive): %w", arm.key, err)
		}
		t0 := time.Now()
		if _, _, err := qb.QueryBatch(batch, 0); err != nil {
			return fmt.Errorf("%s batch: %w", arm.key, err)
		}
		r.set("technique."+arm.key+".search_us", us(wallQB))
		r.set("technique."+arm.key+".batch_us_per_query", us(time.Since(t0))/microBatch)
		r.set("eta."+arm.key+".measured", costQB/costFull)

		// Ce is the encrypted cost per tuple of the all-sensitive arm.
		ce := costFull / microTuples
		sb, nsb := binWidths(bins)
		p := costmodel.Params{
			Alpha: float64(len(ds.SensitiveIDs)) / microTuples,
			Beta:  ce / (tPlain.Seconds() / math.Log2(microTuples+1)),
			Gamma: ce / tMove.Seconds(),
			Rho:   1 / float64(len(ds.Values)),
			D:     microTuples, SB: sb, NSB: nsb,
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%s: %w", arm.key, err)
		}
		r.set("eta."+arm.key+".predicted", p.Eta())
	}
	return nil
}

func microOwner(arm techArm, ds *workload.Dataset, sensitive relation.Predicate) (*owner.Owner, *core.Bins, error) {
	tech, err := arm.build(crypto.DeriveKeys([]byte("qb bench micro key")))
	if err != nil {
		return nil, nil, err
	}
	o := owner.New(tech, workload.Attr)
	err = o.Outsource(ds.Relation, sensitive, core.Options{Rand: mrand.New(mrand.NewPCG(1, 2))})
	return o, o.Bins(), err
}

// queryCost returns the median wall time of one selection and the median
// cost in seconds including any virtual time the technique charged. The
// query list is repeated until the arm has run for armBudget, so that the
// fast techniques are not judged on a dozen microsecond samples.
func queryCost(o *owner.Owner, queries []relation.Value) (wall time.Duration, cost float64, err error) {
	var walls, costs []float64
	for start := time.Now(); time.Since(start) < armBudget; {
		for _, q := range queries {
			t0 := time.Now()
			_, st, err := o.Query(q)
			d := time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			walls = append(walls, float64(d))
			costs = append(costs, (d + st.Enc.SimulatedTime).Seconds())
		}
	}
	return time.Duration(median(walls)), median(costs), nil
}

// binWidths is the mean number of values per sensitive and per
// non-sensitive bin: the predicate counts |SB| and |NSB| of one query.
func binWidths(b *core.Bins) (sb, nsb int) {
	width := func(bins [][]relation.ValueCount) int {
		n, filled := 0, 0
		for _, bin := range bins {
			if len(bin) > 0 {
				n += len(bin)
				filled++
			}
		}
		if filled == 0 {
			return 0
		}
		return int(math.Round(float64(n) / float64(filled)))
	}
	return width(b.Sensitive), width(b.NonSensitive)
}
