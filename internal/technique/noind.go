package technique

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
)

// NoInd is the search procedure the paper implemented on the two commercial
// non-deterministically encrypted databases ("systems A and B", §V-B):
// since the cloud cannot search non-deterministic ciphertexts, the owner
// (round 1) retrieves the encrypted searching-attribute column, decrypts it
// locally, finds the addresses matching the |SB| predicates, and (round 2)
// fetches the full tuples at those addresses.
//
// NoInd keeps no mutable owner-side state of its own: concurrent searches
// are safe because the cipher is stateless, the store synchronises
// internally, and the optional Cache synchronises internally too.
type NoInd struct {
	keys  *crypto.KeySet
	prob  *crypto.Probabilistic
	store EncStore

	// cache is set by SetCache: searches then revalidate the cached
	// decrypted column instead of re-pulling it, and reuse cached payload
	// decryptions. It stays nil for the classic stateless behaviour.
	cache *Cache
}

// NewNoInd builds the technique over the derived key set.
func NewNoInd(keys *crypto.KeySet) (*NoInd, error) {
	return NewNoIndOn(keys, storage.NewEncryptedStore())
}

// NewNoIndOn builds the technique over an explicit store (e.g. a remote
// cloud's).
func NewNoIndOn(keys *crypto.KeySet, store EncStore) (*NoInd, error) {
	prob, err := crypto.NewProbabilistic(keys.Enc)
	if err != nil {
		return nil, fmt.Errorf("technique: noind: %w", err)
	}
	return &NoInd{keys: keys, prob: prob, store: store}, nil
}

// Name implements Technique.
func (n *NoInd) Name() string { return "NoInd" }

// Indexable implements Technique.
func (n *NoInd) Indexable() bool { return false }

// StoredRows implements Technique.
func (n *NoInd) StoredRows() int { return n.store.Len() }

// Store exposes the cloud-side encrypted store for the adversary model.
func (n *NoInd) Store() EncStore { return n.store }

// SetCache attaches (or, with nil, detaches) an owner-side version cache.
// It must be called before the technique is shared across goroutines.
func (n *NoInd) SetCache(c *Cache) { n.cache = c }

// cachedColumn revalidates the cached column by one conditional round
// trip: only the appended tail (or, on a miss, the whole column) is
// transferred and decrypted, and that delta alone is published back. It
// returns the column to match through, the cell count this revalidation
// vouches for (a concurrent reader may already have extended the column
// past it) and the epoch of the store instance both — and any payload
// reuse — are consistent with.
func (n *NoInd) cachedColumn(st *Stats) (col *column, cells int, epoch uint64, err error) {
	col, ver, have, ctBytes := n.cache.colSnapshot()
	st.Rounds++
	rows, cur, delta, err := n.store.AttrColumnSince(ver, have)
	if err != nil {
		return nil, 0, 0, err
	}
	if delta {
		st.CacheHits++
		st.CacheBytesSaved += ctBytes
		n.cache.recordHit(ctBytes)
	} else {
		col, have = nil, 0
		st.CacheMisses++
		n.cache.recordMiss()
	}
	st.TuplesScanned += len(rows)
	st.TuplesTransferred += len(rows)
	if len(rows) == 0 {
		return col, have, cur.Epoch, nil
	}
	vals := make([]relation.Value, len(rows))
	var scratch []byte
	for i, row := range rows {
		st.BytesTransferred += len(row.AttrCT)
		pt, err := n.prob.DecryptAppend(scratch[:0], row.AttrCT)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("technique: noind attr decrypt addr %d: %w", row.Addr, err)
		}
		scratch = pt
		st.EncOps++
		if vals[i], _, err = relation.DecodeValue(pt); err != nil {
			return nil, 0, 0, err
		}
	}
	return n.cache.colExtend(col, cur, have, rows, vals), have + len(rows), cur.Epoch, nil
}

// Outsource implements Technique: both the attribute cell and the full
// tuple are probabilistically encrypted, so equal values are
// indistinguishable at rest.
func (n *NoInd) Outsource(rows []Row) (*Stats, error) {
	st := &Stats{Rounds: 1}
	for _, r := range rows {
		attrCT, err := n.prob.Encrypt(r.Attr.Encode())
		if err != nil {
			return nil, err
		}
		tupleCT, err := n.prob.Encrypt(r.Payload)
		if err != nil {
			return nil, err
		}
		if n.store.Add(tupleCT, attrCT, nil) < 0 {
			return nil, errAddRefused
		}
		st.EncOps += 2
		st.TuplesTransferred++
		st.BytesTransferred += len(attrCT) + len(tupleCT)
	}
	return st, nil
}

// Search implements Technique as a batch of one.
func (n *NoInd) Search(values []relation.Value) ([][]byte, *Stats, error) {
	return searchOne(n, values)
}

// SearchBatch implements Technique with real cross-query sharing: the
// encrypted attribute column is pulled and decrypted once for the whole
// batch (the redundant per-query pull is exactly what batching amortises),
// each distinct bin retrieval is matched and fetched once (binReps), and
// the matched tuples come back in one batched fetch round trip. A tuple
// matched by several bins is decrypted once.
// Shared work — the column scan and each distinct tuple decryption — is
// counted once in the batch-level Stats; PerQuery[i] carries query i's
// access pattern and result transfers.
//
// With the version cache attached the column pull becomes one conditional
// round trip, matching goes through the cached column's index, and round 2
// fetches only addresses whose decryptions are not cached. Results and
// per-query access patterns are identical either way; the cloud-observed
// accesses of the cached path are a subset.
func (n *NoInd) SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	nq := len(queries)
	agg := &Stats{PerQuery: make([]*Stats, nq)}
	out := make([][][]byte, nq)
	if nq == 0 {
		return out, agg, nil
	}
	for i := range agg.PerQuery {
		agg.PerQuery[i] = &Stats{}
	}
	rep := binReps(queries)
	var err error
	if n.cache != nil {
		err = n.matchCached(queries, rep, agg, out)
	} else {
		err = n.matchScan(queries, rep, agg, out)
	}
	if err != nil {
		return nil, nil, err
	}
	shareBins(rep, agg, out)
	return out, agg, nil
}

// matchScan is the uncached body of SearchBatch for the representative
// queries: round 1 pulls and decrypts the whole column once, round 2
// fetches every representative's matches in one batched call.
func (n *NoInd) matchScan(queries [][]relation.Value, rep []int, agg *Stats, out [][][]byte) error {
	// Inverted predicate index: value -> the representative queries
	// wanting it, so the column pass costs one lookup per row, not one per
	// (row, query). A cell's plaintext is its value's encoding, which is
	// one-to-one, so the map is keyed by encoded bytes and the scan below
	// looks each decrypted cell up as it is, without decoding it.
	wantedBy := make(map[string][]int)
	reps := 0
	var enc []byte
	for i, q := range queries {
		if rep[i] != i {
			continue
		}
		reps++
		for _, v := range q {
			enc = v.AppendEncode(enc[:0])
			if qs := wantedBy[string(enc)]; len(qs) == 0 || qs[len(qs)-1] != i {
				wantedBy[string(enc)] = append(qs, i)
			}
		}
	}

	// Round 1 pulls the full column (from the zero version): the decrypted
	// cell only lives for one iteration, so one scratch buffer serves the
	// whole scan.
	agg.Rounds++
	col, _, _, err := n.store.AttrColumnSince(storage.EncVersion{}, 0)
	if err != nil {
		return err
	}
	agg.TuplesScanned = len(col)
	agg.TuplesTransferred = len(col)
	addrs := make([][]int, len(queries))
	var scratch []byte
	for _, row := range col {
		agg.BytesTransferred += len(row.AttrCT)
		pt, err := n.prob.DecryptAppend(scratch[:0], row.AttrCT)
		if err != nil {
			return fmt.Errorf("technique: noind attr decrypt addr %d: %w", row.Addr, err)
		}
		scratch = pt
		agg.EncOps++
		for _, qi := range wantedBy[string(pt)] {
			addrs[qi] = append(addrs[qi], row.Addr)
		}
	}

	// Round 2: repeated bin retrievals ride along as empty address lists,
	// and a tuple several bins matched is decrypted once (opened). One bin
	// has nobody to share with, and filling the map for its hundreds of
	// rows measurably slows a single uncached read
	// (BenchmarkRemoteQueryBatch/pipe/sequential-nocache).
	rowBatches, err := fetchBatch(n.store, addrs, agg)
	if err != nil {
		return err
	}
	var opened map[int][]byte
	if reps > 1 {
		opened = make(map[int][]byte)
	}
	for qi, rows := range rowBatches {
		if rep[qi] != qi {
			continue
		}
		per := agg.PerQuery[qi]
		payloads := make([][]byte, 0, len(rows))
		for _, r := range rows {
			pt, ok := opened[r.Addr]
			if !ok {
				pt, err = n.prob.Decrypt(r.TupleCT)
				if err != nil {
					return fmt.Errorf("technique: noind tuple decrypt addr %d: %w", r.Addr, err)
				}
				agg.EncOps++
				if opened != nil {
					opened[r.Addr] = pt
				}
			}
			per.TuplesTransferred++
			per.BytesTransferred += len(r.TupleCT)
			payloads = append(payloads, pt)
		}
		per.ReturnedAddrs = addrs[qi]
		out[qi] = payloads
	}
	return nil
}

// matchCached is the cached body of SearchBatch for the representative
// queries: one conditional column pull, index matching, and at most one
// fetch round trip for whatever of the matched addresses is not cached.
func (n *NoInd) matchCached(queries [][]relation.Value, rep []int, agg *Stats, out [][][]byte) error {
	col, cells, epoch, err := n.cachedColumn(agg)
	if err != nil {
		return err
	}
	// need is what round 2 asks for: the first matching bin's address list
	// as it stands and, once a second bin matches, the union of all of
	// them, slot recording an address's place in it so that an address
	// several bins share is fetched and decrypted once. A batch of one
	// never builds the union.
	addrs := make([][]int, len(queries))
	first := -1
	var need []int
	var slot map[int]int
	for i, q := range queries {
		if rep[i] != i || len(q) == 0 {
			continue
		}
		if addrs[i] = n.cache.colMatch(col, cells, q); len(addrs[i]) == 0 {
			continue
		}
		if first < 0 {
			first, need = i, addrs[i]
			continue
		}
		if slot == nil {
			slot = make(map[int]int, len(need)+len(addrs[i]))
			for j, a := range need {
				slot[a] = j
			}
			need = append([]int(nil), need...)
		}
		for _, a := range addrs[i] {
			if _, ok := slot[a]; !ok {
				slot[a] = len(need)
				need = append(need, a)
			}
		}
	}

	payloads, fetched, err := n.cache.fetchPayloads(n.store, n.prob, agg, epoch, need)
	if err != nil {
		return err
	}
	for qi := range queries {
		if rep[qi] != qi {
			continue
		}
		per := agg.PerQuery[qi]
		per.ReturnedAddrs = addrs[qi]
		switch {
		case slot == nil && qi == first:
			out[qi] = payloads
			per.addFetched(fetched)
		case slot == nil:
			out[qi] = [][]byte{}
		default:
			mine := make([][]byte, len(addrs[qi]))
			for j, a := range addrs[qi] {
				k := slot[a]
				mine[j] = payloads[k]
				if fetched != nil && fetched[k] > 0 {
					per.TuplesTransferred++
					per.BytesTransferred += fetched[k]
				}
			}
			out[qi] = mine
		}
	}
	return nil
}
