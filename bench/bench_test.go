package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/owner"
	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/wire"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(2000, 99); got != 20 {
		t.Errorf("samplesBeyond(2000, 99) = %d, want 20", got)
	}
	sorted := make([]time.Duration, 1000)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	if p50, p99 := percentile(sorted, 50), percentile(sorted, 99); p50 != 500*time.Millisecond || p99 != 990*time.Millisecond {
		t.Errorf("percentiles of 1..1000 ms: p50 %v, p99 %v; want 500ms and 990ms", p50, p99)
	}

	// The gated tails are catalogue metrics under the names BENCHMARK.json
	// bounds, and the note carries the higher percentiles the count supports.
	r := &runResult{metrics: map[string]metric{}}
	latencyMetrics(r, "read", readTail, sorted)
	latencyMetrics(r, "write", writeTail, sorted)
	if got := r.metrics["read_p99_ms"].Value; got != 990 {
		t.Errorf("read_p99_ms = %g, want 990", got)
	}
	if got := r.metrics["write_p95_ms"].Value; got != 950 {
		t.Errorf("write_p95_ms = %g, want 950", got)
	}
	if want := "write latency: 1000 samples, 50 beyond p95; reported, not gated: p99 990.0000 ms"; r.notes[1] != want {
		t.Errorf("write note %q, want %q", r.notes[1], want)
	}
}

func TestQuietSegments(t *testing.T) {
	for _, c := range []struct {
		name   string
		stolen []float64
		want   []bool
	}{
		{"all quiet", []float64{0, 0.01, 0.02, 0}, []bool{true, true, true, true}},
		{"one noisy", []float64{0, 0.30, 0.01, 0}, []bool{true, false, true, true}},
		{"half noisy keeps the quiet half", []float64{0.2, 0, 0.3, 0.01}, []bool{false, true, false, true}},
		{"all noisy keeps the quietest half", []float64{0.4, 0.1, 0.3, 0.2, 0.5}, []bool{false, true, true, true, false}},
		{"single segment is always kept", []float64{0.9}, []bool{true}},
	} {
		got := quietSegments(c.stolen)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestSegmentRateIsTheMedianOfKeptSegments(t *testing.T) {
	ph := &phase{segment: 2 * time.Second, stolen: []float64{0, 0.5, 0, 0}, per: make([][]sample, 2)}
	ph.keep = quietSegments(ph.stolen)
	// Segments complete 100, 10, 300 and 200 ops over two callers; the
	// starved second segment must not count.
	for seg, n := range []int{100, 10, 300, 200} {
		for i := 0; i < n; i++ {
			ph.per[i%2] = append(ph.per[i%2], sample{seg: seg, read: true})
		}
	}
	if got := ph.segmentRate(); got != 100 {
		t.Errorf("segmentRate = %g ops/s, want 100 (median of 50, 150, 100)", got)
	}
	if per := ph.clean(); len(per[0])+len(per[1]) != 600 {
		t.Errorf("clean kept %d samples, want 600", len(per[0])+len(per[1]))
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 1, Parent: 0, Name: "owner.query", Start: 0, End: 100 * us},
		{ID: 2, Parent: 1, Name: "technique.search", Start: 10 * us, End: 40 * us},
		{ID: 3, Parent: 1, Name: classSearch, Start: 30 * us, End: 60 * us}, // overlaps span 2
		{ID: 4, Parent: 1, Name: classFlush, Start: 70 * us, End: 120 * us}, // outlives its parent
		{ID: 5, Parent: 2, Name: classFetch, Start: 10 * us, End: 20 * us},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 20 * us, // 100 - ([10,60] = 50) - ([70,100] = 30)
		2: 20 * us, // 30 - 10
		3: 30 * us,
		4: 50 * us,
		5: 10 * us,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestLayerTableAddsUpToTheWall(t *testing.T) {
	us := time.Microsecond
	var spans []span
	var infos []opInfo
	// Four identical reads: the clear-text search runs beside the
	// technique for 20 us, which the table must show as overlap.
	for op := 1; op <= 4; op++ {
		base := time.Duration(op) * time.Millisecond
		id := len(spans) + 1
		spans = append(spans,
			span{ID: id, Op: op, Name: "owner.query", Start: base, End: base + 100*us},
			span{ID: id + 1, Parent: id, Op: op, Name: "technique.search", Start: base + 10*us, End: base + 60*us},
			span{ID: id + 2, Parent: id, Op: op, Name: classSearch, Start: base + 40*us, End: base + 90*us},
			span{ID: id + 3, Parent: id + 1, Op: op, Name: classVersion, Start: base + 20*us, End: base + 50*us},
		)
		infos = append(infos, opInfo{op: op, kind: "read"})
	}
	tab := newLayerTable([][]span{spans}, [][]opInfo{infos}, "read")
	if tab.n != 4 || tab.band != 4 || tab.wall != 100 {
		t.Fatalf("n=%d band=%d wall=%g, want 4, 4, 100", tab.n, tab.band, tab.wall)
	}
	want := map[string]float64{"owner": 20, "technique": 20, classSearch: 50, classVersion: 30}
	sum := 0.0
	for l, w := range want {
		if tab.self[l] != w {
			t.Errorf("self[%s] = %g, want %g", l, tab.self[l], w)
		}
		sum += tab.self[l]
	}
	if tab.overlap != 20 || sum-tab.overlap != tab.wall {
		t.Errorf("overlap = %g, rows sum to %g: want 20 and rows - overlap = wall", tab.overlap, sum)
	}
	if tab.calls[classVersion] != 1 || tab.calls[classSearch] != 1 {
		t.Errorf("calls per read = %v, want one of each class", tab.calls)
	}
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	d, err := generateDataset(7, 0, 2000, 50)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[2] // index-write: reads and inserts
	draw := func(seed uint64) []string {
		ten := newTenant(0, "s", d, seed, w, false)
		var out []string
		for i := 0; i < 500; i++ {
			op := ten.next()
			out = append(out, op.Value.Key()+map[bool]string{true: "r", false: "w"}[op.Read]+map[bool]string{true: "s", false: "p"}[op.Sensitive])
		}
		return out
	}
	a, b, c := draw(3), draw(3), draw(4)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same {
		t.Error("the same seed drew two different op streams")
	}
	if !differ {
		t.Error("two seeds drew the same op stream")
	}
	d2, err := generateDataset(7, 0, 2000, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range d.rel.Tuples {
		if !tup.Values[1].Equal(d2.rel.Tuples[i].Values[1]) {
			t.Fatal("the same seed generated two different datasets")
		}
	}
}

func TestReferenceCheckAndCorruption(t *testing.T) {
	d, err := generateDataset(1, 0, 2000, 50)
	if err != nil {
		t.Fatal(err)
	}
	hot := d.values[0].Value
	answer, err := d.rel.Select("K", hot)
	if err != nil {
		t.Fatal(err)
	}
	clean := newTenant(0, "s", d, 1, workloads[0], false)
	if err := clean.ref.check(hot, answer); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	if err := clean.ref.check(hot, answer[1:]); err == nil {
		t.Error("an answer missing a tuple passed")
	}
	swapped := append([]relation.Tuple(nil), answer...)
	swapped[0].ID++
	if err := clean.ref.check(hot, swapped); err == nil {
		t.Error("an answer with a wrong tuple ID passed")
	}
	corrupt := newTenant(0, "s", d, 1, workloads[0], true)
	if err := corrupt.ref.check(hot, answer); err == nil {
		t.Error("the corrupted reference accepted the exact answer: -corrupt would not fail the run")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{10, 10, 10, 10}); s != 0 {
		t.Errorf("spread of equal values = %g", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := gate{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := gate{Name: "steady_ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name string
		g    gate
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"slower within bound", lower, steady, scale(steady, 1.08), verdictWithin},
		{"slower past bound", lower, steady, scale(steady, 1.15), verdictWorse},
		{"faster is never worse", lower, steady, scale(steady, 0.5), verdictWithin},
		{"throughput down past bound", higher, steady, scale(steady, 0.85), verdictWorse},
		{"throughput up", higher, steady, scale(steady, 1.5), verdictWithin},
		{"spread wider than bound", lower, []float64{0.8, 1.0, 1.2, 0.7, 1.3}, scale(steady, 1.5), verdictUnresolved},
		{"single runs have no spread", lower, []float64{1}, []float64{1.2}, verdictWorse},
	} {
		if got, _ := judge(c.g, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, change := judge(lower, steady, scale(steady, 1.15)); math.Abs(change-0.15) > 1e-9 {
		t.Errorf("change = %g, want 0.15", change)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestRingStoreNamesFixTheTopology(t *testing.T) {
	// Whatever ports the nodes got, tenant i's primary is node i and its
	// second replica node i+1.
	for _, ports := range [][]string{
		{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"},
		{"127.0.0.1:51234", "127.0.0.1:33321", "127.0.0.1:45678"},
	} {
		s := &stack{ringAddr: "127.0.0.1:1", nodeAddrs: ports}
		names := storeNames(s)
		if len(names) != tenants || names[0] == names[1] {
			t.Fatalf("names %v", names)
		}
		dir := &ring.Directory{Replicas: ringReplicas}
		for _, a := range ports {
			dir.Nodes = append(dir.Nodes, ring.Node{ID: a, Addr: a})
		}
		for i, name := range names {
			p := ring.Build(dir).Placement(name)
			if p[0].Addr != ports[i] || p[1].Addr != ports[i+1] {
				t.Errorf("tenant %d placed on %v, want nodes %d and %d of %v", i, p, i, i+1, ports)
			}
		}
		again := storeNames(s)
		for i := range names {
			if names[i] != again[i] {
				t.Errorf("store names are not a function of the node list: %v vs %v", names, again)
			}
		}
	}
	single := storeNames(&stack{cloudAddr: "127.0.0.1:1", nodeAddrs: []string{"127.0.0.1:1"}})
	if single[0] != "bench/t00" || single[1] != "bench/t01" {
		t.Errorf("single-node names %v", single)
	}
}

// TestBenchmarkJSONMatchesTheCatalogue holds BENCHMARK.json to the metrics
// and workloads the program reports, and to the limits of the contract it
// is read under.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("size %d, run_seconds %d, paths %v", len(raw), doc.RunSeconds, doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the catalogue %s (%s)", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s[%d] %q: bad or repeated name, unit %q or direction %q", kind, i, g.Name, g.Unit, g.Better)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v", kind, i, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d: %q, the program has %q", i, w.Name, workloads[i].name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// localBackend serves the calls the traced stack makes from in-process
// stores, so the decorators can be exercised without a socket. Methods it
// does not define panic through the nil embedded interface.
type localBackend struct {
	wire.Backend
	enc   *storage.EncryptedStore
	plain *storage.PlainStore
}

func (b *localBackend) Load(rns *relation.Relation, attr string) (err error) {
	b.plain, err = storage.NewPlainStore(rns, attr)
	return err
}
func (b *localBackend) Search(vs []relation.Value) []relation.Tuple { return b.plain.Search(vs) }
func (b *localBackend) Insert(t relation.Tuple) error               { return b.plain.Insert(t) }
func (b *localBackend) Add(t, a, tok []byte) int                    { return b.enc.Add(t, a, tok) }
func (b *localBackend) Fetch(addrs []int) ([]storage.EncRow, error) { return b.enc.Fetch(addrs) }
func (b *localBackend) Rows() []storage.EncRow                      { return b.enc.Rows() }
func (b *localBackend) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	return b.enc.AttrColumnSince(v, have)
}
func (b *localBackend) Flush() error            { return nil }
func (b *localBackend) Err() error              { return nil }
func (b *localBackend) LogicalErr() error       { return nil }
func (b *localBackend) LogicalErrCount() uint64 { return 0 }

// TestTracedStackSpansAndReplay drives the traced stack of hot-read over
// local stores: every boundary must yield a span with the right parent,
// the layer table must add up, and the recorded calls must replay.
func TestTracedStackSpansAndReplay(t *testing.T) {
	d, err := generateDataset(3, 0, 2000, 50)
	if err != nil {
		t.Fatal(err)
	}
	c := &tracedClient{tr: newTracer(), cache: technique.NewCache(0)}
	c.be = &tracedBackend{inner: &localBackend{enc: storage.NewEncryptedStore()}, tr: c.tr, record: true}
	tech, err := technique.NewNoIndOn(crypto.DeriveKeys([]byte("k")), c.be)
	if err != nil {
		t.Fatal(err)
	}
	tech.SetCache(c.cache)
	c.o = owner.New(&tracedTechnique{inner: tech, tr: c.tr}, "K")
	c.o.SetCloudBackend(c.be)
	if err := c.o.Outsource(d.rel, d.sensitive, core.Options{}); err != nil {
		t.Fatal(err)
	}
	c.tr.take() // outsourcing is not under test

	ten := newTenant(0, "s", d, 3, workloads[0], false)
	ten.q = c
	for i := 0; i < 40; i++ {
		if _, ok := ten.do(ten.next(), time.Now()); !ok {
			t.Fatalf("op %d failed: %s", i, ten.firstFailure)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := ten.do(ten.nextWrite(), time.Now()); !ok {
			t.Fatalf("insert %d failed: %s", i, ten.firstFailure)
		}
	}
	spans, infos := c.tr.take(), c.ops
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Fatalf("span %+v never ended", s)
		}
	}
	for _, s := range spans {
		parent := byID[s.Parent].Name
		switch s.Name {
		case "owner.query", "owner.insert":
			if s.Parent != 0 {
				t.Errorf("root span %s has parent %q", s.Name, parent)
			}
		case "technique.search", classSearch:
			if parent != "owner.query" {
				t.Errorf("%s under %q, want owner.query", s.Name, parent)
			}
		case classVersion, classColumn, classFetch:
			if parent != "technique.search" {
				t.Errorf("%s under %q, want technique.search", s.Name, parent)
			}
		case classAdd:
			if parent != "technique.outsource" {
				t.Errorf("%s under %q, want technique.outsource", s.Name, parent)
			}
		case classInsert, classFlush, "technique.outsource":
			if parent != "owner.insert" {
				t.Errorf("%s under %q, want owner.insert", s.Name, parent)
			}
		default:
			t.Errorf("unexpected span %q", s.Name)
		}
		if byID[s.Parent].Op != s.Op && s.Parent != 0 {
			t.Errorf("span %s of op %d hangs under op %d", s.Name, s.Op, byID[s.Parent].Op)
		}
	}

	reads := newLayerTable([][]span{spans}, [][]opInfo{infos}, "read")
	writes := newLayerTable([][]span{spans}, [][]opInfo{infos}, "write")
	if reads.n != 40 || writes.n != 10 {
		t.Fatalf("tables cover %d reads and %d writes, want 40 and 10", reads.n, writes.n)
	}
	for _, tab := range []*layerTable{reads, writes} {
		sum := -tab.overlap
		for _, v := range tab.self {
			sum += v
		}
		if math.Abs(sum-tab.wall) > 1e-6*tab.wall {
			t.Errorf("rows sum to %g us, wall is %g us", sum, tab.wall)
		}
	}
	if reads.calls[classSearch] != 1 || reads.calls[classVersion] != 1 {
		t.Errorf("calls per read %v: want one clear-text search and one revalidation", reads.calls)
	}

	rep := &replica{enc: storage.NewEncryptedStore()}
	for _, row := range c.be.inner.Rows() {
		rep.enc.Add(row.TupleCT, row.AttrCT, row.Token)
	}
	_, rns := relation.Partition(d.rel, d.sensitive)
	if rep.plain, err = storage.NewPlainStore(rns, "K"); err != nil {
		t.Fatal(err)
	}
	replayed := rep.replay(c.be.calls)
	for name, v := range replayed.metrics() {
		if v <= 0 {
			t.Errorf("%s = %g after replay, want a positive time", name, v)
		}
	}
	if got := len(replayed.durs[classSearch]); got < 40 {
		t.Errorf("replayed %d clear-text searches, want the 40 recorded", got)
	}
}

// TestInProcessLayersReportEveryMetric runs the arms that need neither a
// server nor a dataset of benchmark size.
func TestInProcessLayersReportEveryMetric(t *testing.T) {
	d, err := generateDataset(1, 0, 2000, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := &runResult{metrics: map[string]metric{}}
	if err := cryptoLayer(r); err != nil {
		t.Fatal(err)
	}
	if err := relationLayer(r); err != nil {
		t.Fatal(err)
	}
	if err := coreLayer(r, d, 1); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, def := range perLayer {
		if strings.HasPrefix(def.name, "crypto.") || strings.HasPrefix(def.name, "relation.") || strings.HasPrefix(def.name, "core.") {
			want++
			if m, ok := r.metrics[def.name]; !ok || m.Value <= 0 || m.Unit != def.unit {
				t.Errorf("%s = %+v, want a positive value in %s", def.name, m, def.unit)
			}
		}
	}
	if len(r.metrics) != want {
		t.Errorf("the layers set %d metrics, the catalogue lists %d for them", len(r.metrics), want)
	}
	if err := r.complete(perLayer); err == nil {
		t.Error("a result with three layers passed for a complete traced pass")
	}
}
