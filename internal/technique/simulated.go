package technique

import (
	"fmt"
	"time"

	"repro/internal/crypto"
	"repro/internal/relation"
)

// Simulated wraps a real (NoInd-style) search with a calibrated virtual-time
// cost model for secure-hardware and MPC systems we cannot deploy here
// (Intel SGX / Opaque and multi-party Jana). The substitution preserves the
// quantity Table VI depends on — how many encrypted tuples each query forces
// the system to process obliviously — and charges the paper's measured
// per-tuple cost for them. SimulatedTime in the returned Stats is the
// virtual wall-clock; the real cryptographic work (AES-GCM on every row) is
// still performed, so correctness is tested end to end.
type Simulated struct {
	name     string
	perTuple time.Duration // oblivious processing cost per scanned tuple
	fixed    time.Duration // per-query fixed cost (enclave/MPC setup)
	inner    *NoInd
}

// Calibration constants fitted to the paper's reported absolute numbers
// (§V-B): Opaque answers a selection over 6M tuples in 89 s; Jana over 1M
// tuples in 1051 s. A selection forces both systems to touch every tuple.
// The fixed per-query setup cost (enclave entry / MPC circuit setup) is the
// intercept of the Table VI series (≈10 s for both systems); the per-tuple
// rate is the remainder of the headline number spread over the scan.
const (
	opaqueSeconds = 89.0
	opaqueTuples  = 6_000_000
	janaSeconds   = 1051.0
	janaTuples    = 1_000_000
	fixedSeconds  = 10.0
)

// NewSimOpaque builds the Opaque cost model.
func NewSimOpaque(keys *crypto.KeySet) (*Simulated, error) {
	return newSimulated("SimOpaque", keys, opaqueSeconds, opaqueTuples)
}

// NewSimJana builds the Jana cost model.
func NewSimJana(keys *crypto.KeySet) (*Simulated, error) {
	return newSimulated("SimJana", keys, janaSeconds, janaTuples)
}

func newSimulated(name string, keys *crypto.KeySet, seconds float64, tuples int) (*Simulated, error) {
	inner, err := NewNoInd(keys)
	if err != nil {
		return nil, fmt.Errorf("technique: %s: %w", name, err)
	}
	per := time.Duration((seconds - fixedSeconds) / float64(tuples) * float64(time.Second))
	fixed := time.Duration(fixedSeconds * float64(time.Second))
	return &Simulated{name: name, perTuple: per, fixed: fixed, inner: inner}, nil
}

// Name implements Technique.
func (s *Simulated) Name() string { return s.name }

// Indexable implements Technique.
func (s *Simulated) Indexable() bool { return false }

// StoredRows implements Technique.
func (s *Simulated) StoredRows() int { return s.inner.StoredRows() }

// PerTupleCost returns the calibrated per-tuple oblivious-processing cost.
func (s *Simulated) PerTupleCost() time.Duration { return s.perTuple }

// FixedCost returns the per-query setup cost of the model.
func (s *Simulated) FixedCost() time.Duration { return s.fixed }

// Outsource implements Technique.
func (s *Simulated) Outsource(rows []Row) (*Stats, error) { return s.inner.Outsource(rows) }

// Search implements Technique: real work via the inner technique, virtual
// time from the calibrated model.
func (s *Simulated) Search(values []relation.Value) ([][]byte, *Stats, error) {
	payloads, st, err := s.inner.Search(values)
	if err != nil {
		return nil, nil, err
	}
	st.SimulatedTime = s.fixed + time.Duration(st.TuplesScanned)*s.perTuple
	return payloads, st, nil
}

// SearchBatch implements Technique through fallbackSearchBatch: a repeated
// bin's real work is done once, but every query is charged the full fixed
// plus per-tuple cost. The modelled systems pay a per-query setup (enclave
// entry / MPC circuit initialisation) and an oblivious pass per query, so
// a shared charge would falsify the cost model the technique reproduces.
func (s *Simulated) SearchBatch(queries [][]relation.Value) ([][][]byte, *Stats, error) {
	return fallbackSearchBatch(s, queries)
}

// SimulateFullScan returns the virtual time for a query that must scan n
// tuples, without doing the work — used by the analytical side of Table VI.
func (s *Simulated) SimulateFullScan(n int) time.Duration {
	return s.fixed + time.Duration(n)*s.perTuple
}
