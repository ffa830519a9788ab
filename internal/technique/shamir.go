package technique

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/crypto"
	"repro/internal/relation"
)

// ShamirScan models the secret-sharing-based outsourcing the paper cites
// (Emekçi et al.; Stealth SDB): the searchable attribute of every row is
// split into Shamir shares across NumClouds non-colluding clouds, and a
// selection is answered by a full linear scan — each cloud streams its share
// of the attribute column back, the owner reconstructs every value and
// keeps the matches. Because every query touches every row on every cloud,
// the access pattern is hidden, at a heavy cost: this is the γ >> 1 regime
// where QB shines (§V-A).
//
// Payloads are additionally sealed with a probabilistic cipher and
// replicated so that matched tuples can be fetched and opened; on a real
// deployment they would be shared as well, which only increases the costs
// QB saves.
type ShamirScan struct {
	// NumClouds is the number of non-colluding servers (n).
	NumClouds int
	// Threshold is the reconstruction threshold (k <= n).
	Threshold int

	prob *crypto.Probabilistic

	// mu guards the share columns and sealed payloads: searches scan them
	// under a read lock while outsourcing appends under the write lock.
	mu     sync.RWMutex
	clouds [][]crypto.Share // clouds[c][row] share of attr digest
	blobs  [][]byte         // sealed payloads, addressed by row
}

// NewShamirScan builds the technique with n clouds and threshold k.
func NewShamirScan(keys *crypto.KeySet, n, k int) (*ShamirScan, error) {
	if n < 2 || k < 2 || k > n {
		return nil, fmt.Errorf("technique: shamir: invalid n=%d k=%d", n, k)
	}
	prob, err := crypto.NewProbabilistic(keys.Enc)
	if err != nil {
		return nil, fmt.Errorf("technique: shamir: %w", err)
	}
	return &ShamirScan{
		NumClouds: n,
		Threshold: k,
		prob:      prob,
		clouds:    make([][]crypto.Share, n),
	}, nil
}

// Name implements Technique.
func (s *ShamirScan) Name() string { return "ShamirScan" }

// Indexable implements Technique.
func (s *ShamirScan) Indexable() bool { return false }

// StoredRows implements Technique.
func (s *ShamirScan) StoredRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// digest maps an attribute value into the field GF(2^61-1).
func digest(v relation.Value) uint64 {
	h := fnv.New64a()
	h.Write(v.Encode())
	return h.Sum64() % crypto.ShamirPrime
}

// Outsource implements Technique: one sharing per row attribute.
func (s *ShamirScan) Outsource(rows []Row) (*Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &Stats{Rounds: 1}
	for _, r := range rows {
		shares, err := crypto.SplitSecret(digest(r.Attr), s.NumClouds, s.Threshold, nil)
		if err != nil {
			return nil, err
		}
		for c := 0; c < s.NumClouds; c++ {
			s.clouds[c] = append(s.clouds[c], shares[c])
		}
		blob, err := s.prob.Encrypt(r.Payload)
		if err != nil {
			return nil, err
		}
		s.blobs = append(s.blobs, blob)
		st.EncOps += s.NumClouds + 1
		st.TuplesTransferred += s.NumClouds
		st.BytesTransferred += 16*s.NumClouds + len(blob)
	}
	return st, nil
}

// Search implements Technique as a batch of one.
func (s *ShamirScan) Search(values []relation.Value) ([][]byte, *Stats, error) {
	return searchOne(s, values)
}

// SearchBatch implements Technique with a shared share-reconstruction
// scan: every cloud streams its whole share column (a full oblivious scan)
// once for the whole batch, the owner reconstructs each row's attribute
// digest from Threshold clouds once and matches it against every query's
// predicate set, and a payload matched by several queries is opened once.
// The scan and the reconstructions are counted once in the batch-level
// Stats; PerQuery[i] carries query i's access pattern and result
// transfers.
func (s *ShamirScan) SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	nq := len(queries)
	agg := &Stats{Rounds: 2, PerQuery: make([]*Stats, nq)}
	out := make([][][]byte, nq)
	if nq == 0 {
		return out, agg, nil
	}
	// Inverted predicate index: attribute digest -> the queries wanting
	// it, so the scan costs one lookup per row, not one per (row, query).
	wantedBy := make(map[uint64][]int)
	for i, q := range queries {
		agg.PerQuery[i] = &Stats{}
		seen := make(map[uint64]bool, len(q))
		for _, v := range q {
			d := digest(v)
			if !seen[d] {
				seen[d] = true
				wantedBy[d] = append(wantedBy[d], i)
			}
		}
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.blobs)
	addrs := make([][]int, nq)
	// Shared scan: the share columns stream back once per batch.
	agg.TuplesScanned = n * s.NumClouds
	agg.TuplesTransferred = n * s.Threshold
	agg.BytesTransferred = 16 * n * s.Threshold
	sharesBuf := make([]crypto.Share, s.Threshold)
	for row := 0; row < n; row++ {
		for c := 0; c < s.Threshold; c++ {
			sharesBuf[c] = s.clouds[c][row]
		}
		dig, err := crypto.Reconstruct(sharesBuf)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: shamir reconstruct row %d: %w", row, err)
		}
		agg.EncOps++ // one reconstruction serves the whole batch
		for _, qi := range wantedBy[dig] {
			addrs[qi] = append(addrs[qi], row)
		}
	}

	opened := make(map[int][]byte)
	for qi := range queries {
		per := agg.PerQuery[qi]
		payloads := make([][]byte, 0, len(addrs[qi]))
		for _, a := range addrs[qi] {
			pt, ok := opened[a]
			if !ok {
				var err error
				pt, err = s.prob.Decrypt(s.blobs[a])
				if err != nil {
					return nil, nil, fmt.Errorf("technique: shamir open row %d: %w", a, err)
				}
				agg.EncOps++
				opened[a] = pt
			}
			per.TuplesTransferred++
			per.BytesTransferred += len(s.blobs[a])
			payloads = append(payloads, pt)
		}
		per.ReturnedAddrs = addrs[qi]
		out[qi] = payloads
		agg.TuplesTransferred += per.TuplesTransferred
		agg.BytesTransferred += per.BytesTransferred
	}
	return out, agg, nil
}
