// Package cloud models the untrusted, honest-but-curious public cloud of
// the partitioned computation model (§II): it stores the plaintext
// non-sensitive relation and (via the technique's encrypted store) the
// encrypted sensitive relation, answers bin queries faithfully, and records
// the adversarial view AV = Inc ∪ Opc of every query for the attack suite.
//
// The view log is the ground truth the batch engine's equivalence property
// is stated against: however a batch executes — shared scans, worker
// pools, batched round trips — the recorded views must equal those of a
// sequential query loop. PlainBackend abstracts the clear-text store so it
// can live in process or behind the wire protocol.
package cloud

import (
	"sync"

	"repro/internal/relation"
	"repro/internal/storage"
)

// View is the adversarial view of one query execution: everything the
// honest-but-curious cloud observes. Plaintext inputs and outputs are fully
// visible; the encrypted side exposes only predicate counts and returned
// addresses (access pattern).
type View struct {
	// QueryID orders the views.
	QueryID int
	// PlainValues are the clear-text predicates Wns received for Rns.
	PlainValues []relation.Value
	// EncPredicates is the number of encrypted predicates received for Rs;
	// their contents are indistinguishable ciphertexts.
	EncPredicates int
	// PlainResults are the non-sensitive tuples returned (fully visible).
	PlainResults []relation.Tuple
	// EncResultAddrs are the cloud addresses of the returned encrypted
	// tuples.
	EncResultAddrs []int
}

// PlainBackend abstracts the cloud-side clear-text store so the owner can
// talk to the in-process store or to a remote cloud over the wire
// protocol.
type PlainBackend interface {
	// Load uploads the non-sensitive relation and indexes it on attr.
	Load(rns *relation.Relation, attr string) error
	// Search executes q(Wns)(Rns).
	Search(values []relation.Value) []relation.Tuple
	// Insert appends one non-sensitive tuple.
	Insert(t relation.Tuple) error
}

// localPlain adapts storage.PlainStore to PlainBackend.
type localPlain struct {
	ps *storage.PlainStore
}

func (l *localPlain) Load(rns *relation.Relation, attr string) error {
	ps, err := storage.NewPlainStore(rns, attr)
	if err != nil {
		return err
	}
	l.ps = ps
	return nil
}

func (l *localPlain) Search(values []relation.Value) []relation.Tuple { return l.ps.Search(values) }
func (l *localPlain) Insert(t relation.Tuple) error                   { return l.ps.Insert(t) }

// Server is one public cloud. It is safe for concurrent use: searches run
// in parallel (the underlying stores are internally synchronised), and the
// adversarial-view log is guarded by its own mutex so Record assigns
// strictly increasing QueryIDs in append order — Views always observes a
// consistent, ordered prefix of the log.
type Server struct {
	plain PlainBackend
	local *localPlain // non-nil when the backend is in-process

	mu    sync.RWMutex // guards views and next
	views []View
	next  int
}

// NewServer stores the non-sensitive relation rns in clear-text, in
// process, indexed on the searchable attribute.
func NewServer(rns *relation.Relation, attr string) (*Server, error) {
	l := &localPlain{}
	if err := l.Load(rns, attr); err != nil {
		return nil, err
	}
	return &Server{plain: l, local: l}, nil
}

// NewServerOn loads the non-sensitive relation into an arbitrary backend
// (e.g. a remote cloud reached over the wire protocol).
func NewServerOn(backend PlainBackend, rns *relation.Relation, attr string) (*Server, error) {
	if err := backend.Load(rns, attr); err != nil {
		return nil, err
	}
	return &Server{plain: backend}, nil
}

// Attach wraps a backend that already holds the non-sensitive partition
// (e.g. a restored or long-running remote cloud) without re-uploading.
func Attach(backend PlainBackend) *Server {
	if l, ok := backend.(*localPlain); ok {
		return &Server{plain: backend, local: l}
	}
	return &Server{plain: backend}
}

// Plain exposes the in-process plaintext store, which the local adversary
// may read in full. It returns nil when the backend is remote.
func (s *Server) Plain() *storage.PlainStore {
	if s.local == nil {
		return nil
	}
	return s.local.ps
}

// SearchPlain executes q(Wns)(Rns) and returns the matching tuples.
func (s *Server) SearchPlain(values []relation.Value) []relation.Tuple {
	return s.plain.Search(values)
}

// InsertPlain appends a non-sensitive tuple.
func (s *Server) InsertPlain(t relation.Tuple) error { return s.plain.Insert(t) }

// Record appends an adversarial view, assigning the next QueryID
// atomically with the append so the log order and the ID order agree.
func (s *Server) Record(v View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v.QueryID = s.next
	s.next++
	s.views = append(s.views, v)
}

// Views returns a snapshot of the recorded adversarial views in query
// order.
func (s *Server) Views() []View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]View(nil), s.views...)
}

// ViewCount returns the number of recorded views without copying the log.
func (s *Server) ViewCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.views)
}

// ResetViews clears the view log (between attack experiments).
func (s *Server) ResetViews() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.views = nil
	s.next = 0
}
