package technique

import (
	"fmt"
	"sync"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Arx implements the indexable encoding of §VI: the i-th occurrence of a
// value v is stored under the deterministic token PRF(v || i), so no two
// rows share a token, yet the owner — who keeps the occurrence histogram —
// can regenerate every token of v and probe the cloud index once per
// occurrence. β is close to clear-text (1.4–2.5 in the paper); the leakage
// is the number of trapdoors per query (i.e. value frequencies) and the
// access pattern, both of which QB hides.
type Arx struct {
	prob  *crypto.Probabilistic
	tok   *crypto.ArxTokenizer
	store EncStore
	// mu guards the owner-side histogram so concurrent searches can read
	// it while an insert-driven Outsource updates it.
	mu sync.RWMutex
	// hist is the owner-side occurrence histogram keyed by value.
	hist map[string]int
	vals map[string]relation.Value
}

// NewArx builds the technique over the derived key set.
func NewArx(keys *crypto.KeySet) (*Arx, error) {
	return NewArxOn(keys, storage.NewEncryptedStore())
}

// NewArxOn builds the technique over an explicit store (e.g. a remote
// cloud's).
func NewArxOn(keys *crypto.KeySet, store EncStore) (*Arx, error) {
	prob, err := crypto.NewProbabilistic(keys.Enc)
	if err != nil {
		return nil, fmt.Errorf("technique: arx: %w", err)
	}
	return &Arx{
		prob:  prob,
		tok:   crypto.NewArxTokenizer(keys.Arx),
		store: store,
		hist:  make(map[string]int),
		vals:  make(map[string]relation.Value),
	}, nil
}

// Name implements Technique.
func (a *Arx) Name() string { return "Arx" }

// Indexable implements Technique.
func (a *Arx) Indexable() bool { return true }

// StoredRows implements Technique.
func (a *Arx) StoredRows() int { return a.store.Len() }

// Store exposes the cloud-side store for the adversary model.
func (a *Arx) Store() EncStore { return a.store }

// Histogram returns the owner-side occurrence count of v.
func (a *Arx) Histogram(v relation.Value) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.hist[v.Key()]
}

// Outsource implements Technique: each row is tokenised with its occurrence
// counter, so tokens are unique even for repeated values.
func (a *Arx) Outsource(rows []Row) (*Stats, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &Stats{Rounds: 1}
	for _, r := range rows {
		k := r.Attr.Key()
		i := a.hist[k]
		a.hist[k] = i + 1
		a.vals[k] = r.Attr
		token := a.tok.Token(r.Attr.Encode(), uint32(i))
		tupleCT, err := a.prob.Encrypt(r.Payload)
		if err != nil {
			return nil, err
		}
		if a.store.Add(tupleCT, nil, token) < 0 {
			return nil, errAddRefused
		}
		st.EncOps += 2
		st.TuplesTransferred++
		st.BytesTransferred += len(token) + len(tupleCT)
	}
	return st, nil
}

// Search implements Technique: the owner regenerates all occurrence tokens
// for each predicate, probes the index once per token, then fetches once.
func (a *Arx) Search(values []relation.Value) ([][]byte, *Stats, error) {
	st := &Stats{Rounds: 1}
	var addrs []int
	for _, v := range values {
		a.mu.RLock()
		n := a.hist[v.Key()]
		a.mu.RUnlock()
		for _, token := range a.tok.Tokens(v.Encode(), n) {
			st.EncOps++
			st.Rounds++
			hits := a.store.LookupToken(token)
			st.TuplesScanned += len(hits)
			addrs = append(addrs, hits...)
		}
	}
	rows, err := fetch(a.store, addrs)
	if err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, 0, len(rows))
	for _, r := range rows {
		pt, err := a.prob.Decrypt(r.TupleCT)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: arx decrypt addr %d: %w", r.Addr, err)
		}
		st.EncOps++
		st.TuplesTransferred++
		st.BytesTransferred += len(r.TupleCT)
		payloads = append(payloads, pt)
	}
	st.ReturnedAddrs = addrs
	return payloads, st, nil
}

// SearchBatch implements Technique through fallbackSearchBatch: Arx probes
// the index once per occurrence token, so a batch has no shared scan to
// amortise, but each distinct bin is searched once, concurrently.
func (a *Arx) SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	return fallbackSearchBatch(a, queries)
}
