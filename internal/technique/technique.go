// Package technique implements the pluggable cryptographic search mechanisms
// that QB is layered over (§V, §VI): the paper's non-indexable baseline used
// on the commercial systems A/B, a deterministic indexable cipher, the
// Arx-style counter-token index, a Shamir secret-sharing linear scan across
// non-colluding clouds, and calibrated cost models for the SGX-based Opaque
// and MPC-based Jana systems.
//
// A Technique owns both the owner-side secrets and the cloud-side encrypted
// store; the owner hands it plaintext rows to outsource and receives
// decrypted payloads back from a search, together with cost statistics and
// the cloud-observable access pattern.
//
// A search comes in two forms, Search for one selection and SearchBatch
// for many, and each technique implements only the form it does natively.
// The scan-shaped techniques (NoInd, DPF-PIR, ShamirScan) implement
// SearchBatch, sharing their column pull or table scan across all queries
// of a batch, and answer Search as a batch of one. The index-shaped ones
// (DetIndex, Arx) and the simulated cost models implement Search, a point
// probe or a per-query setup charge, and answer a batch with one
// concurrent Search per distinct bin. Either way a batch's results and
// per-query access patterns are identical to a sequential Search loop;
// only the cost profile changes. One consequence: DPF-PIR's Search over a k-value bin
// scans its table ⌈k/64⌉ times, not k times.
package technique

import (
	"time"

	"repro/internal/relation"
)

// Row is one sensitive tuple as the owner presents it for outsourcing:
// an opaque payload (the encoded tuple, possibly a fake) and the searchable
// attribute value.
type Row struct {
	Payload []byte
	Attr    relation.Value
}

// Stats accumulates the cost and leakage profile of outsourcing or search
// operations.
type Stats struct {
	// Rounds is the number of owner<->cloud round trips. For the
	// techniques over an EncStore it is the number of store calls the
	// operation made, each a round trip over the wire; ShamirScan and
	// DPF-PIR keep their clouds in process and charge their protocol's
	// fixed round count.
	Rounds int
	// EncOps counts symmetric cryptographic operations (encrypt/decrypt/
	// PRF/share evaluations) on either side.
	EncOps int
	// TuplesScanned is the number of encrypted rows the cloud touched.
	TuplesScanned int
	// TuplesTransferred is the number of rows (attribute cells or full
	// tuples) moved between cloud and owner.
	TuplesTransferred int
	// BytesTransferred approximates the wire volume.
	BytesTransferred int
	// ReturnedAddrs are the cloud-visible addresses of the encrypted rows
	// returned for the query — the access-pattern component of the
	// adversarial view.
	ReturnedAddrs []int
	// SimulatedTime is nonzero only for simulated techniques (Opaque,
	// Jana): the virtual wall-clock the calibrated cost model charges.
	SimulatedTime time.Duration
	// CacheHits / CacheMisses count owner-side version-cache revalidations:
	// a hit is a query whose cached column/table/memo was confirmed current
	// (or extended by a delta) by the store's version counter, a miss is a
	// full re-pull. Zero unless the technique has a cache attached.
	CacheHits   int
	CacheMisses int
	// CacheBytesSaved estimates the wire bytes a cache hit avoided — the
	// size of the transfer the uncached path would have made minus what the
	// conditional path actually moved.
	CacheBytesSaved int
	// PerQuery is populated by SearchBatch only: entry i is query i's
	// attributable slice of the batch — its ReturnedAddrs (the per-query
	// access pattern the owner turns into an adversarial view) and its
	// result-transfer counters. Work shared across the batch (a column
	// pull or table scan serving every query at once, and the round trips
	// carrying it) is counted once, in the batch-level counters above, and
	// in no PerQuery entry; the top-level counters are therefore
	// authoritative for total cost. Add ignores this field.
	PerQuery []*Stats
}

// addFetched counts the payload transfers a Cache.fetchPayloads call
// reported: one tuple and its ciphertext bytes per nonzero entry.
func (s *Stats) addFetched(fetched []int) {
	for _, ctLen := range fetched {
		if ctLen > 0 {
			s.TuplesTransferred++
			s.BytesTransferred += ctLen
		}
	}
}

// Add folds o's counters into s. PerQuery is not merged: batch-level
// attribution only makes sense relative to one SearchBatch call.
func (s *Stats) Add(o *Stats) {
	s.Rounds += o.Rounds
	s.EncOps += o.EncOps
	s.TuplesScanned += o.TuplesScanned
	s.TuplesTransferred += o.TuplesTransferred
	s.BytesTransferred += o.BytesTransferred
	s.ReturnedAddrs = append(s.ReturnedAddrs, o.ReturnedAddrs...)
	s.SimulatedTime += o.SimulatedTime
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheBytesSaved += o.CacheBytesSaved
}

// Technique is a cryptographic mechanism for outsourcing and searching the
// sensitive relation.
//
// Implementations must be safe for concurrent use: searches may run on
// many goroutines at once (the owner's streaming batch fans selections out
// across a worker pool), and Outsource may interleave with in-flight
// searches (post-outsourcing inserts). Rows are append-only, so a search
// observes some consistent prefix of the store.
type Technique interface {
	// Name identifies the technique in reports.
	Name() string
	// Indexable reports whether the cloud can locate matching rows without
	// scanning (deterministic/Arx indexes). Non-indexable techniques scan.
	Indexable() bool
	// Outsource encrypts and uploads the given rows.
	Outsource(rows []Row) (*Stats, error)
	// Search returns the plaintext payloads of every outsourced row whose
	// attribute value is in values, plus the cost/leakage statistics.
	Search(values []relation.Value) ([][]byte, *Stats, error)
	// SearchBatch answers many selections at once. Results and per-query
	// access patterns are identical to calling Search once per element of
	// queries — batching changes only the cost profile: scan-shaped
	// techniques (NoInd, DPF-PIR, ShamirScan) perform their column pull /
	// table scan once for the whole batch, and index-shaped ones probe
	// once per distinct bin (predicate slice), concurrently. The returned
	// Stats is batch-level — shared work counted once in the top-level
	// counters — with one PerQuery entry per query carrying that query's
	// ReturnedAddrs and result transfers. On error the whole batch fails; callers needing
	// sequential failure attribution re-run query by query.
	SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error)
	// StoredRows reports how many encrypted rows the cloud holds.
	StoredRows() int
}
