package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/technique"
	"repro/internal/wire"
)

// span is one timed call across a layer boundary. Spans of one caller
// operation share Op; Parent is the span that caused this one (0 for the
// operation's root). Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects the spans of one tenant's caller in memory. The caller
// is sequential, so there is one operation open at a time; inside it the
// owner runs the clear-text fetch beside the encrypted search and a batch
// fans out over a worker pool, so spans begin and end from several
// goroutines and children of one parent may overlap in time.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	op    int // sequence number of the open operation
	root  int // its root span
	tech  int // the open technique span, 0 if none
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open appends a span; the caller holds t.mu.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans)
}

// beginOp opens the root span of the caller's next operation.
func (t *tracer) beginOp(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.root = t.open(name, 0)
	return t.root
}

// beginTech opens a technique span under the operation's root; store
// calls made while it is open are its children.
func (t *tracer) beginTech(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tech = t.open(name, t.root)
	return t.tech
}

// beginPlain opens a span for a call the owner makes itself: a child of
// the operation's root.
func (t *tracer) beginPlain(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open(name, t.root)
}

// beginStore opens a span for an encrypted-store call: a child of the open
// technique span, or of the root when the caller flushes directly.
func (t *tracer) beginStore(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tech != 0 {
		return t.open(name, t.tech)
	}
	return t.open(name, t.root)
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) endTech(id int) {
	t.end(id)
	t.mu.Lock()
	t.tech = 0
	t.mu.Unlock()
}

// rename relabels a span whose class is known only once it has returned.
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// take returns the collected spans and starts an empty collection.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans, t.op, t.root, t.tech = nil, 0, 0, 0
	return out
}

// selfTimes computes every span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ a, b time.Duration }
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids[s.Parent] = append(kids[s.Parent], iv{a, b})
			}
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, hi time.Duration
		hi = s.Start
		for _, k := range ivs {
			if k.b <= hi {
				continue
			}
			covered += k.b - max(k.a, hi)
			hi = k.b
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// tracedTechnique records a span around every call into the technique.
type tracedTechnique struct {
	inner technique.Technique
	tr    *tracer
}

func (t *tracedTechnique) Name() string    { return t.inner.Name() }
func (t *tracedTechnique) Indexable() bool { return t.inner.Indexable() }
func (t *tracedTechnique) StoredRows() int { return t.inner.StoredRows() }

func (t *tracedTechnique) Outsource(rows []technique.Row) (*technique.Stats, error) {
	id := t.tr.beginTech("technique.outsource")
	defer t.tr.endTech(id)
	return t.inner.Outsource(rows)
}

func (t *tracedTechnique) Search(values []relation.Value) ([][]byte, *technique.Stats, error) {
	id := t.tr.beginTech("technique.search")
	defer t.tr.endTech(id)
	return t.inner.Search(values)
}

func (t *tracedTechnique) SearchBatch(queries [][]relation.Value) ([][][]byte, *technique.Stats, error) {
	id := t.tr.beginTech("technique.searchbatch")
	defer t.tr.endTech(id)
	return t.inner.SearchBatch(queries)
}

// Store call classes: the names of the spans around the cloud-facing
// calls, and of the wire.<class>_us metrics.
const (
	classVersion = "wire.version" // version probe, length probe, conditional pull answered from the held version
	classSearch  = "wire.search"  // clear-text bin search
	classColumn  = "wire.column"  // full attribute-column or table pull
	classFetch   = "wire.fetch"   // encrypted rows by address
	classLookup  = "wire.lookup"  // token index probe
	classInsert  = "wire.insert"  // clear-text insert
	classFlush   = "wire.flush"   // buffered encrypted uploads
	classAdd     = "wire.add"     // buffering one encrypted row; no round trip
	classLoad    = "wire.load"    // clear-text partition upload (outsourcing only)
)

var wireClasses = []string{classVersion, classSearch, classColumn, classFetch, classLookup, classInsert, classFlush}

// replayLimit bounds how many calls per class are kept for the storage
// replay.
const replayLimit = 256

// storeCall is one recorded cloud-facing call, kept so that the same call
// can be replayed against a local store of identical content.
type storeCall struct {
	class  string
	values []relation.Value // clear-text search
	addrs  []int            // fetch
	token  []byte           // lookup
	tuple  relation.Tuple   // clear-text insert
	row    storage.EncRow   // add
}

// tracedBackend records a span around every call that leaves the owner
// process: the clear-text backend the owner talks to and the encrypted
// store the technique talks to are the same remote namespace view.
type tracedBackend struct {
	inner wire.Backend
	tr    *tracer

	mu     sync.Mutex
	record bool
	calls  []storeCall
	kept   map[string]int
}

var (
	_ cloud.PlainBackend          = (*tracedBackend)(nil)
	_ technique.BatchEncStore     = (*tracedBackend)(nil)
	_ technique.VersionedEncStore = (*tracedBackend)(nil)
)

func (b *tracedBackend) keep(c storeCall) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.record || b.kept[c.class] >= replayLimit {
		return
	}
	if b.kept == nil {
		b.kept = map[string]int{}
	}
	b.kept[c.class]++
	b.calls = append(b.calls, c)
}

// plain-side calls come from the owner, so their parent is the root.

func (b *tracedBackend) Load(rns *relation.Relation, attr string) error {
	id := b.tr.beginPlain(classLoad)
	defer b.tr.end(id)
	return b.inner.Load(rns, attr)
}

func (b *tracedBackend) Search(values []relation.Value) []relation.Tuple {
	b.keep(storeCall{class: classSearch, values: values})
	id := b.tr.beginPlain(classSearch)
	defer b.tr.end(id)
	return b.inner.Search(values)
}

func (b *tracedBackend) SearchRange(lo, hi relation.Value) []relation.Tuple {
	id := b.tr.beginPlain(classSearch)
	defer b.tr.end(id)
	return b.inner.SearchRange(lo, hi)
}

func (b *tracedBackend) Insert(t relation.Tuple) error {
	b.keep(storeCall{class: classInsert, tuple: t})
	id := b.tr.beginPlain(classInsert)
	defer b.tr.end(id)
	return b.inner.Insert(t)
}

func (b *tracedBackend) Flush() error {
	id := b.tr.beginPlain(classFlush)
	defer b.tr.end(id)
	return b.inner.Flush()
}

// encrypted-side calls come from the technique.

func (b *tracedBackend) Add(tupleCT, attrCT, token []byte) int {
	b.keep(storeCall{class: classAdd, row: storage.EncRow{TupleCT: tupleCT, AttrCT: attrCT, Token: token}})
	id := b.tr.beginStore(classAdd)
	defer b.tr.end(id)
	return b.inner.Add(tupleCT, attrCT, token)
}

func (b *tracedBackend) Len() int {
	id := b.tr.beginStore(classVersion)
	defer b.tr.end(id)
	return b.inner.Len()
}

func (b *tracedBackend) AttrColumn() []storage.EncRow {
	b.keep(storeCall{class: classColumn})
	id := b.tr.beginStore(classColumn)
	defer b.tr.end(id)
	return b.inner.AttrColumn()
}

func (b *tracedBackend) Rows() []storage.EncRow {
	id := b.tr.beginStore(classColumn)
	defer b.tr.end(id)
	return b.inner.Rows()
}

func (b *tracedBackend) Fetch(addrs []int) ([]storage.EncRow, error) {
	b.keep(storeCall{class: classFetch, addrs: addrs})
	id := b.tr.beginStore(classFetch)
	defer b.tr.end(id)
	return b.inner.Fetch(addrs)
}

func (b *tracedBackend) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	id := b.tr.beginStore(classFetch)
	defer b.tr.end(id)
	return b.inner.FetchBatch(addrBatches)
}

func (b *tracedBackend) LookupToken(tok []byte) []int {
	b.keep(storeCall{class: classLookup, token: tok})
	id := b.tr.beginStore(classLookup)
	defer b.tr.end(id)
	return b.inner.LookupToken(tok)
}

func (b *tracedBackend) EncVersion() (storage.EncVersion, error) {
	id := b.tr.beginStore(classVersion)
	defer b.tr.end(id)
	return b.inner.EncVersion()
}

// A conditional pull is a version revalidation when the server answers
// from the held version (delta), and a full pull otherwise; the span is
// named once the answer is known.
func (b *tracedBackend) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	id := b.tr.beginStore(classVersion)
	rows, cur, delta, err := b.inner.AttrColumnSince(v, have)
	b.endConditional(id, delta)
	return rows, cur, delta, err
}

func (b *tracedBackend) RowsSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	id := b.tr.beginStore(classVersion)
	rows, cur, delta, err := b.inner.RowsSince(v, have)
	b.endConditional(id, delta)
	return rows, cur, delta, err
}

func (b *tracedBackend) endConditional(id int, delta bool) {
	b.tr.end(id)
	if !delta {
		b.keep(storeCall{class: classColumn})
		b.tr.rename(id, classColumn)
	}
}
