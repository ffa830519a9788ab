package storage

import (
	"sort"
	"sync"
)

// Store is one named relation's complete cloud-side state: the clear-text
// store for its non-sensitive partition and the encrypted store for its
// sensitive partition. A multi-tenant cloud holds one Store per
// namespace, each independently keyed by its owner.
//
// The per-store lock guards the plain pointer only: installing (or
// replacing) the clear-text store is exclusive against every operation in
// flight on the same store, while operations on other stores proceed
// untouched. The encrypted store pointer is fixed for the Store's
// lifetime and synchronises internally.
type Store struct {
	mu    sync.RWMutex // guards the plain pointer, not the stores
	plain *PlainStore
	enc   *EncryptedStore

	// ownerMu guards ownerHash: the hash of the owner's control-plane
	// token, claimed by the first write to the namespace. The cloud never
	// sees the token itself outside an admin request; at rest it keeps only
	// the hash, so a stolen snapshot does not confer admin rights.
	ownerMu   sync.Mutex
	ownerHash []byte
}

// NewStore returns an empty store (no relation loaded, empty encrypted
// side).
func NewStore() *Store {
	return &Store{enc: NewEncryptedStore()}
}

// SetPlain installs or replaces the clear-text store. It takes the
// store's write lock, so it is exclusive against every ReadView in
// flight: an operation can never land in a relation that a concurrent
// load has already swapped out.
func (s *Store) SetPlain(ps *PlainStore) {
	s.mu.Lock()
	s.plain = ps
	s.mu.Unlock()
}

// ReadView returns the current clear-text store (nil before any load) and
// the encrypted store under the store's read lock. The caller must invoke
// release when the operation completes; reads on the same store run in
// parallel, a SetPlain waits for them.
func (s *Store) ReadView() (plain *PlainStore, enc *EncryptedStore, release func()) {
	s.mu.RLock()
	return s.plain, s.enc, s.mu.RUnlock
}

// Plain returns the current clear-text store without retaining the lock —
// for stats and snapshots taken while the store set is quiesced.
func (s *Store) Plain() *PlainStore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.plain
}

// Enc returns the encrypted store. The pointer never changes for the
// Store's lifetime, so no lock is needed.
func (s *Store) Enc() *EncryptedStore { return s.enc }

// ClaimOwner records hash as the namespace's owner-token hash if none is
// registered yet and reports whether the claim took effect. Later claims
// with a different hash are ignored: the first writer to a namespace is
// its owner until the namespace is dropped.
func (s *Store) ClaimOwner(hash []byte) bool {
	if len(hash) == 0 {
		return false
	}
	s.ownerMu.Lock()
	defer s.ownerMu.Unlock()
	if s.ownerHash != nil {
		return false
	}
	s.ownerHash = append([]byte(nil), hash...)
	return true
}

// OwnerHash returns the registered owner-token hash (nil when the
// namespace has never been written with a token).
func (s *Store) OwnerHash() []byte {
	s.ownerMu.Lock()
	defer s.ownerMu.Unlock()
	return s.ownerHash
}

// StoreSet is a race-safe registry of named stores — the state of a
// multi-tenant cloud. Lookup and creation are atomic: two clients
// touching the same new namespace concurrently get the same *Store.
type StoreSet struct {
	mu sync.RWMutex
	m  map[string]*Store
}

// NewStoreSet returns an empty registry.
func NewStoreSet() *StoreSet {
	return &StoreSet{m: make(map[string]*Store)}
}

// Get returns the named store, if it exists.
func (ss *StoreSet) Get(name string) (*Store, bool) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	st, ok := ss.m[name]
	return st, ok
}

// GetOrCreate returns the named store, creating it empty on first use.
func (ss *StoreSet) GetOrCreate(name string) *Store {
	ss.mu.RLock()
	st, ok := ss.m[name]
	ss.mu.RUnlock()
	if ok {
		return st
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if st, ok := ss.m[name]; ok {
		return st
	}
	st = NewStore()
	ss.m[name] = st
	return st
}

// Set installs a store under name, replacing any existing one. Restore
// paths use it; callers must ensure no operations are in flight on the
// replaced store.
func (ss *StoreSet) Set(name string, st *Store) {
	ss.mu.Lock()
	ss.m[name] = st
	ss.mu.Unlock()
}

// Replace installs st under name and quiesces the store it displaced,
// exactly like Drop does: the replacement is published first, then the
// old store's write lock is taken and released, so by return every
// operation that was in flight on the displaced store has drained. An op
// racing past the swap lands in the orphaned store and its effect
// vanishes with it — the semantics of a ring-ordered replica restore.
func (ss *StoreSet) Replace(name string, st *Store) {
	ss.mu.Lock()
	old := ss.m[name]
	ss.m[name] = st
	ss.mu.Unlock()
	if old != nil {
		old.mu.Lock()
		old.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	}
}

// Drop removes the named store from the registry and reports whether it
// existed. The removal is published first — operations arriving after Drop
// returns (or racing past it) resolve to a fresh empty store on next
// touch — and then the dropped store's write lock is taken and released,
// so by the time Drop returns every operation that was in flight on the
// old store has drained and its memory is unreachable. An op that loses
// the race lands in the orphaned store and its effect vanishes with it,
// which is exactly the semantics of an owner-ordered destruction.
func (ss *StoreSet) Drop(name string) bool {
	ss.mu.Lock()
	st, ok := ss.m[name]
	if ok {
		delete(ss.m, name)
	}
	ss.mu.Unlock()
	if !ok {
		return false
	}
	// Quiesce: wait out readers still holding the dropped store's lock.
	st.mu.Lock()
	st.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	return true
}

// Reset drops every store. Restore paths use it under the same quiescence
// requirement as Set.
func (ss *StoreSet) Reset() {
	ss.mu.Lock()
	ss.m = make(map[string]*Store)
	ss.mu.Unlock()
}

// Names returns the registered namespaces in sorted order.
func (ss *StoreSet) Names() []string {
	ss.mu.RLock()
	out := make([]string, 0, len(ss.m))
	for name := range ss.m {
		out = append(out, name)
	}
	ss.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len reports the number of registered namespaces.
func (ss *StoreSet) Len() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return len(ss.m)
}
