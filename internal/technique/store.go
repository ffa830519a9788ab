package technique

import (
	"errors"

	"repro/internal/storage"
)

// EncStore is the one contract through which a technique reaches the
// cloud-side encrypted store, in process or over the wire protocol.
// *storage.EncryptedStore is the canonical implementation.
type EncStore interface {
	// Add uploads one encrypted row and returns its cloud address, or -1
	// when the store refused the row (a remote store records why).
	Add(tupleCT, attrCT, token []byte) int
	// Len reports the number of stored rows.
	Len() int
	// AttrColumn returns the encrypted searchable-attribute column.
	AttrColumn() []storage.EncRow
	// Fetch returns the full rows at the given addresses.
	Fetch(addrs []int) ([]storage.EncRow, error)
	// FetchBatch returns the full rows for each address list in
	// addrBatches, indexed like addrBatches: over the wire protocol, one
	// round trip for a whole batch.
	FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error)
	// LookupToken returns the addresses indexed under tok.
	LookupToken(tok []byte) []int
	// Rows exposes all rows (the honest-but-curious adversary's at-rest
	// view).
	Rows() []storage.EncRow
	// EncVersion returns the store's current (Epoch, N) version: Epoch
	// identifies one store instance (it changes on restore-from-snapshot,
	// so a cache never survives into a state that silently lost writes)
	// and N counts the rows appended within it. Techniques compare
	// versions for equality only.
	EncVersion() (storage.EncVersion, error)
	// AttrColumnSince returns the attribute column conditionally: if v is
	// current-epoch and the caller already holds `have` rows, only the rows
	// at addresses >= have come back and delta is true (an empty delta
	// means not modified); otherwise the full column comes back with
	// delta false. cur is the version the returned data is consistent with.
	AttrColumnSince(v storage.EncVersion, have int) (rows []storage.EncRow, cur storage.EncVersion, delta bool, err error)
	// RowsSince is AttrColumnSince for full rows (payload + attribute +
	// token), serving techniques that cache the whole padded table.
	RowsSince(v storage.EncVersion, have int) (rows []storage.EncRow, cur storage.EncVersion, delta bool, err error)
}

// errAddRefused is Outsource's error when the store refuses a row: the
// relation is not fully outsourced, so reporting success would hide rows
// that no search can find.
var errAddRefused = errors.New("technique: the encrypted store refused an uploaded row")

// BatchEncStore and VersionedEncStore are EncStore under the names of the
// parts it used to be split into. They exist only because bench/trace.go
// names them, and go when the benchmark harness stops pinning the store
// interfaces.
type (
	BatchEncStore     = EncStore
	VersionedEncStore = EncStore
)

var _ EncStore = (*storage.EncryptedStore)(nil)
