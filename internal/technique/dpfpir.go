package technique

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/crypto"
	"repro/internal/relation"
)

// DPFPIR is a two-server private information retrieval technique built on
// the distributed point function of crypto: the distinct searchable values
// are laid out as equal-size buckets of (probabilistically encrypted) rows,
// replicated on two non-colluding clouds. A query for value index α sends
// one DPF key to each cloud; each cloud XORs together the buckets whose
// evaluation bit is 1 and returns a single bucket-sized blob. The XOR of
// the two blobs is bucket α. Neither cloud learns α, which rows matched,
// or even the result size — the access pattern is fully hidden, at the
// cost of a linear scan per query (the γ >> 1 regime where QB helps most).
type DPFPIR struct {
	prob *crypto.Probabilistic

	// mu guards everything below: the padded table is rebuilt lazily on
	// the first search after an outsource, so a search takes the write lock
	// for the rebuild (double-checked) and the read lock for the scan.
	mu sync.RWMutex

	// Owner-side metadata.
	valueIdx map[string]int
	values   []relation.Value

	// Cloud-side (replicated) state: raw buckets plus the padded table
	// rebuilt lazily after outsourcing.
	buckets  [][][]byte
	table    [][]byte // padded: one blob of slotSize*slots bytes per value
	slots    int
	slotSize int
	rows     int
	dirty    bool
}

// NewDPFPIR builds the technique over the derived key set.
func NewDPFPIR(keys *crypto.KeySet) (*DPFPIR, error) {
	prob, err := crypto.NewProbabilistic(keys.Enc)
	if err != nil {
		return nil, fmt.Errorf("technique: dpfpir: %w", err)
	}
	return &DPFPIR{prob: prob, valueIdx: make(map[string]int)}, nil
}

// Name implements Technique.
func (d *DPFPIR) Name() string { return "DPF-PIR" }

// Indexable implements Technique: the cloud locates nothing — it scans
// everything, obliviously.
func (d *DPFPIR) Indexable() bool { return false }

// StoredRows implements Technique.
func (d *DPFPIR) StoredRows() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rows
}

// Outsource implements Technique: rows are sealed and appended to their
// value's bucket; the equal-size padded table is rebuilt on next search.
func (d *DPFPIR) Outsource(rows []Row) (*Stats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &Stats{Rounds: 1}
	for _, r := range rows {
		ct, err := d.prob.Encrypt(r.Payload)
		if err != nil {
			return nil, err
		}
		k := r.Attr.Key()
		idx, ok := d.valueIdx[k]
		if !ok {
			idx = len(d.values)
			d.valueIdx[k] = idx
			d.values = append(d.values, r.Attr)
			d.buckets = append(d.buckets, nil)
		}
		d.buckets[idx] = append(d.buckets[idx], ct)
		d.rows++
		st.EncOps++
		st.TuplesTransferred += 2 // replicated on both clouds
		st.BytesTransferred += 2 * len(ct)
	}
	d.dirty = true
	return st, nil
}

// rebuild pads every bucket to the same shape: slots entries of slotSize
// bytes, each slot a 4-byte length prefix plus the ciphertext.
func (d *DPFPIR) rebuild() {
	d.slots, d.slotSize = 0, 4
	for _, b := range d.buckets {
		if len(b) > d.slots {
			d.slots = len(b)
		}
		for _, ct := range b {
			if len(ct)+4 > d.slotSize {
				d.slotSize = len(ct) + 4
			}
		}
	}
	d.table = make([][]byte, len(d.buckets))
	for i, b := range d.buckets {
		blob := make([]byte, d.slots*d.slotSize)
		for s, ct := range b {
			off := s * d.slotSize
			binary.BigEndian.PutUint32(blob[off:off+4], uint32(len(ct)))
			copy(blob[off+4:], ct)
		}
		d.table[i] = blob
	}
	d.dirty = false
}

// xorInto accumulates src into dst.
func xorInto(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// lockForScan takes the read lock for a search, first rebuilding the
// padded table if an outsource dirtied it: the rebuild upgrades to the
// write lock with a double check (another searcher may have rebuilt in the
// window). The caller must RUnlock.
func (d *DPFPIR) lockForScan() {
	d.mu.RLock()
	if d.dirty {
		d.mu.RUnlock()
		d.mu.Lock()
		if d.dirty {
			d.rebuild()
		}
		d.mu.Unlock()
		d.mu.RLock()
	}
}

// Search implements Technique as a batch of one: a k-value bin shares
// ⌈k/maxInflightRetrievals⌉ table scans among its k PIR retrievals.
func (d *DPFPIR) Search(values []relation.Value) ([][]byte, *Stats, error) {
	return searchOne(d, values)
}

// maxInflightRetrievals bounds how many PIR retrievals share one table
// scan: each in-flight retrieval holds two domain-length bit vectors and
// two bucket-sized accumulators, so scanning a whole huge batch at once
// would cost O(batch x table) memory. Chunking keeps memory at
// O(chunk x table) while still amortising the scan across up to this many
// predicates.
const maxInflightRetrievals = 64

// SearchBatch implements Technique with a shared oblivious scan: the DPF
// keys of the batch's predicates are evaluated, and then each of the two
// clouds streams its padded table ONCE per chunk of up to
// maxInflightRetrievals predicates, XORing every in-flight query's answer
// as it goes — one table scan per chunk instead of one per predicate. The
// per-key PRF evaluations and the XOR accumulation are inherently
// per-query and stay attributed per query; only the scan (TuplesScanned)
// is shared and counted once per chunk in the batch-level Stats.
func (d *DPFPIR) SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	nq := len(queries)
	agg := &Stats{Rounds: 1, PerQuery: make([]*Stats, nq)}
	out := make([][][]byte, nq)
	for i := range agg.PerQuery {
		agg.PerQuery[i] = &Stats{}
	}
	if nq == 0 {
		return out, agg, nil
	}
	d.lockForScan()
	defer d.mu.RUnlock()
	if len(d.table) == 0 {
		return out, agg, nil
	}
	bits := crypto.DPFDomainBits(len(d.table))

	// Plan one PIR retrieval per (query, live value), each query's values
	// in sorted order for reproducible stats. The plan holds only indices;
	// the memory-heavy bit vectors and accumulators are materialised per
	// chunk below.
	type target struct {
		qi    int
		value relation.Value
		idx   int
	}
	var plan []target
	for qi, q := range queries {
		sorted := append([]relation.Value(nil), q...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		for _, v := range sorted {
			if idx, ok := d.valueIdx[v.Key()]; ok {
				plan = append(plan, target{qi: qi, value: v, idx: idx})
			}
		}
	}

	type retrieval struct {
		target
		b0, b1 []byte
		a0, a1 []byte
	}
	for start := 0; start < len(plan); start += maxInflightRetrievals {
		chunk := plan[start:min(start+maxInflightRetrievals, len(plan))]
		inflight := make([]*retrieval, 0, len(chunk))
		for _, tg := range chunk {
			k0, k1, err := crypto.DPFGen(uint64(tg.idx), bits, nil)
			if err != nil {
				return nil, nil, err
			}
			b0, err := crypto.DPFEvalAll(k0, len(d.table), bits)
			if err != nil {
				return nil, nil, err
			}
			b1, err := crypto.DPFEvalAll(k1, len(d.table), bits)
			if err != nil {
				return nil, nil, err
			}
			// Key generation plus the per-key PRF work; not shareable.
			agg.PerQuery[tg.qi].EncOps += 2 + 2*len(d.table)
			sz := d.slots * d.slotSize
			inflight = append(inflight, &retrieval{
				target: tg, b0: b0, b1: b1,
				a0: make([]byte, sz), a1: make([]byte, sz),
			})
		}

		// The shared scan: both clouds stream the padded table once per
		// chunk, serving every retrieval in flight.
		agg.TuplesScanned += 2 * d.slots * len(d.table)
		for j, blob := range d.table {
			for _, r := range inflight {
				if r.b0[j] == 1 {
					xorInto(r.a0, blob)
				}
				if r.b1[j] == 1 {
					xorInto(r.a1, blob)
				}
			}
		}

		for _, r := range inflight {
			xorInto(r.a0, r.a1) // r.a0 is now the requested bucket
			per := agg.PerQuery[r.qi]
			per.TuplesTransferred += 2 * d.slots
			per.BytesTransferred += 2 * len(r.a0)
			for s := 0; s < d.slots; s++ {
				off := s * d.slotSize
				n := binary.BigEndian.Uint32(r.a0[off : off+4])
				if n == 0 {
					continue // padding slot
				}
				if int(n) > d.slotSize-4 {
					return nil, nil, fmt.Errorf("technique: dpfpir corrupt slot length %d", n)
				}
				pt, err := d.prob.Decrypt(r.a0[off+4 : off+4+int(n)])
				if err != nil {
					return nil, nil, fmt.Errorf("technique: dpfpir open slot %d: %w", s, err)
				}
				per.EncOps++
				out[r.qi] = append(out[r.qi], pt)
			}
		}
	}
	for _, per := range agg.PerQuery {
		agg.EncOps += per.EncOps
		agg.TuplesTransferred += per.TuplesTransferred
		agg.BytesTransferred += per.BytesTransferred
	}
	return out, agg, nil
}
