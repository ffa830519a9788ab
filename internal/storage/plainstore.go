// Package storage implements the cloud-side stores of the partitioned
// computation model: a plaintext store for the non-sensitive relation
// (hash-indexed on the searchable attribute) and an encrypted store for the
// sensitive relation (address-based fetch plus an optional token index for
// cloud-side-indexable techniques).
//
// All stores are safe for concurrent use: reads (lookups, scans, fetches)
// take shared locks and may proceed in parallel, writes take exclusive
// locks. Stored entries are append-only — the cloud never observes a
// deletion — so slices handed out by read paths stay valid after the lock
// is released.
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/relation"
)

// ErrLenMismatch reports a conditional insert whose expected tuple count
// no longer matched; nothing was applied. Callers distinguish it from a
// schema rejection with errors.Is.
var ErrLenMismatch = errors.New("storage: relation length mismatch")

// PlainStore is the cloud's clear-text store for the non-sensitive relation
// Rns. It answers bin selections over the searchable attribute through a
// hash index, exactly as a public cloud database would. It is safe for
// concurrent use: searches share a read lock and run in parallel, inserts
// take the write lock.
// Like EncryptedStore it draws a random epoch at construction; within it
// tuples only append, so (epoch, length) pins every search's answer.
type PlainStore struct {
	mu      sync.RWMutex
	rel     *relation.Relation
	attr    string
	attrIdx int
	idx     map[relation.Value][]int // searchable value -> ascending tuple positions
	epoch   uint64
}

// BinAnswer is SearchSince's answer: the store's epoch and length, and the
// whole bin or — NotModified — nothing: the caller's held bin stands.
type BinAnswer struct {
	Tuples      []relation.Tuple
	Epoch       uint64
	Len         int
	NotModified bool
}

// NewPlainStore indexes rel on the searchable attribute attr.
func NewPlainStore(rel *relation.Relation, attr string) (*PlainStore, error) {
	ci, ok := rel.Schema.ColumnIndex(attr)
	if !ok {
		return nil, fmt.Errorf("storage: relation %q has no column %q", rel.Schema.Name, attr)
	}
	s := &PlainStore{
		rel:     rel,
		attr:    attr,
		attrIdx: ci,
		idx:     make(map[relation.Value][]int),
		epoch:   newEpoch(),
	}
	for pos, t := range rel.Tuples {
		s.idx[t.Values[ci]] = append(s.idx[t.Values[ci]], pos)
	}
	return s, nil
}

// Insert appends a tuple to the store and indexes it.
func (s *PlainStore) Insert(t relation.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rel.Append(t); err != nil {
		return err
	}
	v := t.Values[s.attrIdx]
	s.idx[v] = append(s.idx[v], s.rel.Len()-1)
	return nil
}

// InsertIfLen appends t only if the relation currently holds exactly
// expectedLen tuples — the clear-text sibling of
// EncryptedStore.AppendIfLen, and the reason a replicated writer's insert
// cannot double-apply against anti-entropy repair: if a wholesale restore
// (or another writer) moved the count between the writer learning it and
// the insert arriving, the CAS fails cleanly with ErrLenMismatch instead
// of appending a tuple the restored state may already contain. An insert
// whose own tuple (same ID and values) already sits at position
// expectedLen was applied before — a retry whose acknowledgment was lost,
// or a tuple repair already copied — and succeeds without appending, so a
// retried insert lands exactly once. Returns the relation's current tuple
// count either way.
func (s *PlainStore) InsertIfLen(t relation.Tuple, expectedLen int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.rel.Len(); n != expectedLen {
		if expectedLen >= 0 && expectedLen < n {
			if have := s.rel.Tuples[expectedLen]; have.ID == t.ID && slices.EqualFunc(have.Values, t.Values, relation.Value.Equal) {
				return n, nil
			}
		}
		return n, fmt.Errorf("%w: relation holds %d tuples, caller expected %d", ErrLenMismatch, n, expectedLen)
	}
	if err := s.rel.Append(t); err != nil {
		return s.rel.Len(), err
	}
	v := t.Values[s.attrIdx]
	s.idx[v] = append(s.idx[v], s.rel.Len()-1)
	return s.rel.Len(), nil
}

// Len returns the number of stored tuples.
func (s *PlainStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rel.Len()
}

// DistinctValues returns the number of distinct searchable values.
func (s *PlainStore) DistinctValues() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx)
}

// Search returns every tuple whose searchable attribute is one of values —
// the cloud-side execution of q(Wns)(Rns).
func (s *PlainStore) Search(values []relation.Value) []relation.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.searchLocked(values)
}

// searchLocked is Search under a read lock the caller holds.
func (s *PlainStore) searchLocked(values []relation.Value) []relation.Tuple {
	// Two passes: size first, then fill. The result is one exact
	// allocation instead of append-doubling — this runs once per query on
	// the server and its growth churn was visible in the remote profile.
	n := 0
	for _, v := range values {
		n += len(s.idx[v])
	}
	if n == 0 {
		return nil
	}
	out := make([]relation.Tuple, 0, n)
	for _, v := range values {
		for _, pos := range s.idx[v] {
			out = append(out, s.rel.Tuples[pos])
		}
	}
	return out
}

// SearchSince is the conditional Search. Holding the answer for values at
// (epoch, have), the caller gets NotModified when epoch is this store's
// and no searched value has a tuple at a position ≥ have; otherwise (another
// epoch, have past the length, the bin grew) the whole bin. The length is
// read under the search's lock, so an answer holds every tuple below it.
func (s *PlainStore) SearchSince(values []relation.Value, epoch uint64, have int) BinAnswer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.rel.Len()
	if epoch == s.epoch && have >= 0 && have <= n && !s.grownLocked(values, have) {
		return BinAnswer{Epoch: s.epoch, Len: n, NotModified: true}
	}
	return BinAnswer{Tuples: s.searchLocked(values), Epoch: s.epoch, Len: n}
}

// grownLocked reports whether a value has a tuple at a position ≥ have;
// posting lists ascend, so their last entries decide.
func (s *PlainStore) grownLocked(values []relation.Value, have int) bool {
	for _, v := range values {
		if list := s.idx[v]; len(list) > 0 && list[len(list)-1] >= have {
			return true
		}
	}
	return false
}

// SnapshotTuples returns the schema and a copy of the tuple slice under
// the read lock — safe against concurrent inserts, unlike Relation. The
// tuples themselves are never mutated after append, so sharing them is
// safe; only the slice header must be copied.
func (s *PlainStore) SnapshotTuples() (relation.Schema, []relation.Tuple) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tuples := make([]relation.Tuple, len(s.rel.Tuples))
	copy(tuples, s.rel.Tuples)
	return s.rel.Schema, tuples
}

// Relation exposes the underlying relation; the adversary is allowed to read
// it in full ("the adversary has full access to all the non-sensitive
// data"). The caller must not read it while inserts are in flight.
func (s *PlainStore) Relation() *relation.Relation { return s.rel }

// Attr returns the searchable attribute name.
func (s *PlainStore) Attr() string { return s.attr }
