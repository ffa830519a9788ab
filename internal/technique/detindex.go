package technique

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
)

// DetIndex outsources the searchable attribute under deterministic
// encryption so that the cloud can maintain an index over the ciphertexts
// and answer selections without scanning. It is fast (β close to 1) but, on
// its own, leaks the full frequency histogram of the attribute — the
// canonical weak-but-indexable technique QB hardens (§VI).
//
// DetIndex keeps no mutable owner-side state of its own: concurrent
// searches are safe because the ciphers are stateless, the store
// synchronises internally, and the optional Cache synchronises internally
// too.
type DetIndex struct {
	prob  *crypto.Probabilistic
	det   *crypto.Deterministic
	store EncStore

	// cache is set by SetCache: searches then memoise token→address
	// lookups at an exact store version and reuse cached payload
	// decryptions.
	cache *Cache
}

// NewDetIndex builds the technique over the derived key set.
func NewDetIndex(keys *crypto.KeySet) (*DetIndex, error) {
	return NewDetIndexOn(keys, storage.NewEncryptedStore())
}

// NewDetIndexOn builds the technique over an explicit store (e.g. a remote
// cloud's).
func NewDetIndexOn(keys *crypto.KeySet, store EncStore) (*DetIndex, error) {
	prob, err := crypto.NewProbabilistic(keys.Enc)
	if err != nil {
		return nil, fmt.Errorf("technique: detindex: %w", err)
	}
	det, err := crypto.NewDeterministic(keys.Det, keys.Nonce)
	if err != nil {
		return nil, fmt.Errorf("technique: detindex: %w", err)
	}
	return &DetIndex{prob: prob, det: det, store: store}, nil
}

// Name implements Technique.
func (d *DetIndex) Name() string { return "DetIndex" }

// Indexable implements Technique.
func (d *DetIndex) Indexable() bool { return true }

// StoredRows implements Technique.
func (d *DetIndex) StoredRows() int { return d.store.Len() }

// Store exposes the cloud-side store for the adversary model; the Token
// fields are the deterministic ciphertexts the frequency attack groups.
func (d *DetIndex) Store() EncStore { return d.store }

// Outsource implements Technique.
func (d *DetIndex) Outsource(rows []Row) (*Stats, error) {
	st := &Stats{Rounds: 1}
	for _, r := range rows {
		token := d.det.Encrypt(r.Attr.Encode())
		tupleCT, err := d.prob.Encrypt(r.Payload)
		if err != nil {
			return nil, err
		}
		d.store.Add(tupleCT, nil, token)
		st.EncOps += 2
		st.TuplesTransferred++
		st.BytesTransferred += len(token) + len(tupleCT)
	}
	return st, nil
}

// SetCache attaches (or, with nil, detaches) an owner-side version cache.
// It must be called before the technique is shared across goroutines.
func (d *DetIndex) SetCache(c *Cache) { d.cache = c }

// Search implements Technique: one index probe per predicate, then one
// fetch.
func (d *DetIndex) Search(values []relation.Value) ([][]byte, *Stats, error) {
	if d.cache != nil {
		return d.searchCached(values)
	}
	st := &Stats{Rounds: 1 + len(values)}
	var addrs []int
	for _, v := range values {
		token := d.det.Encrypt(v.Encode())
		st.EncOps++
		hits := d.store.LookupToken(token)
		st.TuplesScanned += len(hits)
		addrs = append(addrs, hits...)
	}
	rows, err := fetch(d.store, addrs)
	if err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, 0, len(rows))
	for _, r := range rows {
		pt, err := d.prob.Decrypt(r.TupleCT)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: detindex decrypt addr %d: %w", r.Addr, err)
		}
		st.EncOps++
		st.TuplesTransferred++
		st.BytesTransferred += len(r.TupleCT)
		payloads = append(payloads, pt)
	}
	st.ReturnedAddrs = addrs
	return payloads, st, nil
}

// searchCached is Search with the version cache engaged: one cheap version
// round trip decides whether the memoised token→address lists are still
// exact (any write may change any posting list, so memos only survive an
// unchanged version), and round 2 fetches only the addresses whose
// decryptions are not cached. Results and ReturnedAddrs are identical to
// the uncached path; the cloud-observed accesses are a subset of it.
func (d *DetIndex) searchCached(values []relation.Value) ([][]byte, *Stats, error) {
	st := &Stats{}
	if len(values) == 0 {
		// Nothing to look up: answer locally without a version round trip,
		// and record neither a hit nor a miss — a no-op query says nothing
		// about the cache.
		return [][]byte{}, st, nil
	}
	st.Rounds++
	cur, err := d.store.EncVersion()
	if err != nil {
		return nil, nil, err
	}
	allMemo := true
	var addrs []int
	for _, v := range values {
		token := d.det.Encrypt(v.Encode())
		st.EncOps++
		hits, ok := d.cache.memoGet(cur, string(token))
		if ok {
			// One posting-list probe avoided: roughly 8 bytes per address
			// plus the token that would have travelled.
			st.CacheBytesSaved += len(token) + 8*len(hits)
		} else {
			allMemo = false
			st.Rounds++
			hits = d.store.LookupToken(token)
			d.cache.memoPut(cur, string(token), hits)
		}
		st.TuplesScanned += len(hits)
		addrs = append(addrs, hits...)
	}
	if allMemo {
		st.CacheHits++
		d.cache.recordHit(st.CacheBytesSaved)
	} else {
		st.CacheMisses++
		d.cache.recordMiss()
		d.cache.recordSaved(st.CacheBytesSaved)
	}

	payloads, fetched, err := d.cache.fetchPayloads(d.store, d.prob, st, cur.Epoch, addrs)
	if err != nil {
		return nil, nil, err
	}
	st.addFetched(fetched)
	st.ReturnedAddrs = addrs
	return payloads, st, nil
}

// SearchBatch implements Technique as a per-query fallback: the cloud-side
// index answers each predicate with a point probe, so there is no shared
// scan for a batch to amortise. The queries run concurrently over a
// bounded worker pool.
func (d *DetIndex) SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	return fallbackSearchBatch(d, queries)
}
