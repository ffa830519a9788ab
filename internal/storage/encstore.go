package storage

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// EncRow is one outsourced sensitive tuple as the cloud sees it: opaque
// ciphertexts plus (for cloud-side-indexable techniques only) a searchable
// token. Addr is the cloud-side address; the access-pattern leakage the
// paper discusses is precisely "which Addrs were returned".
type EncRow struct {
	Addr    int
	TupleCT []byte // probabilistic ciphertext of the encoded tuple
	AttrCT  []byte // probabilistic ciphertext of the searchable attribute value
	Token   []byte // deterministic/Arx token, nil for non-indexable techniques
}

// EncVersion identifies a point in an EncryptedStore's write history.
// Epoch is a random nonzero instance identifier: two stores (or the same
// namespace before and after a snapshot restore, which can silently drop
// post-snapshot writes) never share an epoch, so a cache keyed by an old
// epoch can never be validated against rewritten addresses. N counts
// writes (Add, Compact) within the epoch. Within one epoch the row column
// is append-only and rows are immutable, so any state captured at
// (Epoch, have rows) extends to the present by fetching only rows[have:].
type EncVersion struct {
	Epoch uint64
	N     uint64
}

// newEpoch draws a random nonzero epoch. The zero epoch is reserved as
// "client holds no cache" and never matches a live store.
func newEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic("storage: epoch randomness unavailable: " + err.Error())
		}
		if e := binary.LittleEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
}

// tokenShards is the stripe count of the token index. 16 stripes keep the
// per-shard maps small and let concurrent LookupToken calls proceed
// without sharing a lock in the common case.
const tokenShards = 16

// tokenShard is one stripe of the token index: its own lock, its own map.
type tokenShard struct {
	mu sync.RWMutex
	m  map[string][]int // token -> addresses, append-only per key
}

// EncryptedStore holds the encrypted sensitive relation Rs at the cloud.
// It is safe for concurrent use and its read paths are built to scale
// with worker count:
//
//   - The row column is append-only and published through an atomic
//     snapshot pointer, so Fetch/FetchBatch/AttrColumn/Rows/Len never
//     take a lock at all — under a high-worker QueryBatch the readers
//     stop contending on a single RWMutex's reader count.
//   - The token index is striped across tokenShards locks, so parallel
//     LookupToken calls from different queries usually hit different
//     stripes.
//
// Only the writers serialise (on the writer mutex plus the touched token
// stripe). Rows are append-only, so addresses handed out by a read remain
// valid afterwards, and a published snapshot never sees a row mutate
// beneath it.
type EncryptedStore struct {
	writeMu sync.Mutex // serialises the writers: address assignment + append
	rows    []EncRow   // owned by the writers; readers use snap

	// snap is the last published row slice. Appends that grow in place
	// write only beyond the published length, so a reader holding an
	// older snapshot never observes a torn row.
	snap atomic.Pointer[[]EncRow]

	tokens [tokenShards]tokenShard

	// epoch is fixed at construction; ver counts writes. Writers bump ver
	// only AFTER publishing the new snapshot AND indexing the row's token,
	// and readers load ver BEFORE probing either, so state observed at a
	// version is never fresher than that version vouches for: a client
	// that caches (rows, version) and later revalidates can at worst be
	// sent rows it already holds, never be told "unchanged" while rows it
	// lacks exist under that version; and a posting list looked up after
	// loading ver includes every write counted by it, so memoising the
	// list at that version can never capture a pre-write list under a
	// post-write version.
	epoch uint64
	ver   atomic.Uint64
}

// tokenSeed makes the stripe hash per-process (no cross-store coupling,
// no adversarially predictable stripes).
var tokenSeed = maphash.MakeSeed()

// NewEncryptedStore returns an empty store.
func NewEncryptedStore() *EncryptedStore {
	s := &EncryptedStore{epoch: newEpoch()}
	empty := []EncRow(nil)
	s.snap.Store(&empty)
	for i := range s.tokens {
		s.tokens[i].m = make(map[string][]int)
	}
	return s
}

func (s *EncryptedStore) shard(token []byte) *tokenShard {
	return &s.tokens[maphash.Bytes(tokenSeed, token)%tokenShards]
}

// Add appends a row, assigning its address, and indexes its token if any.
func (s *EncryptedStore) Add(tupleCT, attrCT, token []byte) int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.appendLocked([]EncRow{{TupleCT: tupleCT, AttrCT: attrCT, Token: token}}) - 1
}

// appendLocked is the one append, run with writeMu held: it assigns the
// rows addresses by append position (ignoring their Addr fields) and
// returns the new row count. The snapshot is published before the tokens
// are indexed, so an address found through LookupToken is always
// fetchable; the version grows by one per row only after BOTH include the
// write, as the ver field comment requires: a reader that observes the new
// N sees the rows AND the tokens, so a cached search can never memoise a
// pre-write posting list under a post-write version.
func (s *EncryptedStore) appendLocked(rows []EncRow) int {
	base := len(s.rows)
	for _, r := range rows {
		s.rows = append(s.rows, EncRow{Addr: len(s.rows), TupleCT: r.TupleCT, AttrCT: r.AttrCT, Token: r.Token})
	}
	published := s.rows
	s.snap.Store(&published)
	for i, r := range rows {
		if r.Token != nil {
			sh := s.shard(r.Token)
			k := string(r.Token)
			sh.mu.Lock()
			sh.m[k] = append(sh.m[k], base+i)
			sh.mu.Unlock()
		}
	}
	s.ver.Add(uint64(len(rows)))
	return len(published)
}

// snapshot returns the currently published rows; lock-free.
func (s *EncryptedStore) snapshot() []EncRow { return *s.snap.Load() }

// Len returns the number of stored rows.
func (s *EncryptedStore) Len() int { return len(s.snapshot()) }

// Rows exposes the stored rows; the honest-but-curious adversary sees these
// ciphertexts at rest. The returned slice is a snapshot: rows appended
// concurrently are not visible through it.
func (s *EncryptedStore) Rows() []EncRow { return s.snapshot() }

// AttrColumn returns the encrypted searchable-attribute column with
// addresses — the first round of the paper's non-indexable search ("retrieve
// the searching attribute of a sensitive relation at the DB owner side,
// decrypt, and search"). It is AttrColumnSince from the zero version, which
// no store matches: always the full column.
func (s *EncryptedStore) AttrColumn() []EncRow {
	rows, _, _, _ := s.AttrColumnSince(EncVersion{}, 0)
	return rows
}

// Fetch returns the full rows at the given addresses — the second round.
func (s *EncryptedStore) Fetch(addrs []int) ([]EncRow, error) {
	return fetchFrom(s.snapshot(), addrs)
}

// FetchBatch returns the full rows for each address list in addrBatches —
// the batched second round: one call (one wire round trip, when the store
// is remote) serves every query in a batch. The whole batch reads one
// consistent snapshot.
func (s *EncryptedStore) FetchBatch(addrBatches [][]int) ([][]EncRow, error) {
	rows := s.snapshot()
	out := make([][]EncRow, len(addrBatches))
	for i, addrs := range addrBatches {
		set, err := fetchFrom(rows, addrs)
		if err != nil {
			return nil, err
		}
		out[i] = set
	}
	return out, nil
}

// fetchFrom is the one fetch body: the snapshot's rows at addrs, in order.
func fetchFrom(rows []EncRow, addrs []int) ([]EncRow, error) {
	out := make([]EncRow, 0, len(addrs))
	for _, a := range addrs {
		if a < 0 || a >= len(rows) {
			return nil, fmt.Errorf("storage: address %d out of range [0,%d)", a, len(rows))
		}
		out = append(out, rows[a])
	}
	return out, nil
}

// Compact rebuilds the row column and the token index into exactly-sized
// allocations and returns the row count. The row column is append-only, so
// successive Adds leave up to 2x capacity slack in the snapshot slice and
// growth garbage in the stripe maps; a long-lived multi-tenant cloud
// reclaims it per namespace through the control plane's compact op.
// Addresses are preserved exactly — rows never move relative to their
// Addr — so owner-side metadata stays valid. Readers are lock-free and
// see either the old or the new snapshot, which hold identical content.
func (s *EncryptedStore) Compact() int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	rows := make([]EncRow, len(s.rows))
	copy(rows, s.rows)
	s.rows = rows
	s.snap.Store(&rows)
	s.ver.Add(1)

	// Rebuild each stripe's map with exact-size buckets; per-stripe locks
	// keep concurrent LookupToken calls safe throughout.
	for i := range s.tokens {
		sh := &s.tokens[i]
		sh.mu.Lock()
		m := make(map[string][]int, len(sh.m))
		for k, addrs := range sh.m {
			m[k] = append(make([]int, 0, len(addrs)), addrs...)
		}
		sh.m = m
		sh.mu.Unlock()
	}
	return len(rows)
}

// LookupToken returns the addresses whose token equals tok (indexable
// techniques only). Only the stripe owning tok is locked.
func (s *EncryptedStore) LookupToken(tok []byte) []int {
	sh := s.shard(tok)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[string(tok)]
}

// EncVersion returns the store's current version. The error is always nil
// here; the signature matches the remote backends so owner-side caches can
// treat local and remote stores uniformly. The version is loaded before
// any snapshot a caller takes afterwards, so pairing this version with a
// later snapshot is conservative (see the field comment on ver).
func (s *EncryptedStore) EncVersion() (EncVersion, error) {
	return EncVersion{Epoch: s.epoch, N: s.ver.Load()}, nil
}

// AttrColumnSince is the conditional form of AttrColumn. If v carries this
// store's epoch and the caller already holds the first `have` rows of the
// column, only the attribute cells of rows[have:] are returned with
// delta=true (an empty slice means "not modified"). On an epoch mismatch —
// no cache, a different store, or a post-restore rebirth — the full column
// is returned with delta=false. The returned version is never fresher than
// the returned rows, so (cached rows + delta, returned version) is always
// a sound pair to revalidate with later.
func (s *EncryptedStore) AttrColumnSince(v EncVersion, have int) ([]EncRow, EncVersion, bool, error) {
	return s.since(v, have, true)
}

// RowsSince is the conditional form of Rows: full rows instead of the
// attribute column, same delta contract as AttrColumnSince.
func (s *EncryptedStore) RowsSince(v EncVersion, have int) ([]EncRow, EncVersion, bool, error) {
	return s.since(v, have, false)
}

// since is the one projection body of the conditional pulls: the rows past
// have when v still holds (delta), else all of them, projected onto their
// addresses and attribute cells when attrOnly. The version is loaded
// before the snapshot is taken (see the field comment on ver).
func (s *EncryptedStore) since(v EncVersion, have int, attrOnly bool) ([]EncRow, EncVersion, bool, error) {
	cur := EncVersion{Epoch: s.epoch, N: s.ver.Load()}
	rows := s.snapshot()
	delta := v.Epoch == s.epoch && have >= 0 && have <= len(rows)
	if delta {
		rows = rows[have:]
	}
	out := make([]EncRow, len(rows))
	if !attrOnly {
		copy(out, rows)
		return out, cur, delta, nil
	}
	for i, r := range rows {
		out[i] = EncRow{Addr: r.Addr, AttrCT: r.AttrCT}
	}
	return out, cur, delta, nil
}

// AppendIfLen appends rows only if the store currently holds exactly
// expectedLen rows — a compare-and-swap on the row count. It is the
// replica-repair primitive: an anti-entropy repairer that read a lagging
// replica at expectedLen rows and fetched the tail delta from a healthy
// peer can install that tail atomically, and if an owner write landed in
// between the CAS fails cleanly (the repairer re-probes next round)
// instead of interleaving repair rows with live writes at wrong
// addresses. Rows are installed by Add's own append (appendLocked), and
// the incoming Addr fields are ignored: addresses are assigned by append
// position, which the expectedLen check has just pinned to the source's.
func (s *EncryptedStore) AppendIfLen(rows []EncRow, expectedLen int) (int, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if len(s.rows) != expectedLen {
		return len(s.rows), fmt.Errorf("storage: append-if-len: store holds %d rows, caller expected %d", len(s.rows), expectedLen)
	}
	return s.appendLocked(rows), nil
}

// SetVersionFloor raises the write counter to at least n. Snapshot restore
// uses it so a restored namespace never reports a version below the one it
// was saved at; the epoch is freshly drawn at construction regardless, so
// caches validated against the pre-restore store can never match.
func (s *EncryptedStore) SetVersionFloor(n uint64) {
	for {
		cur := s.ver.Load()
		if cur >= n || s.ver.CompareAndSwap(cur, n) {
			return
		}
	}
}
