package wire

import (
	"errors"

	"repro/internal/cloud"
	"repro/internal/relation"
	"repro/internal/technique"
)

// ErrNoRangeSearch is what a Backend's SearchRange records as a logical
// error. The cloud serves no range search: the owner answers a range with
// the ordinary search of its covering bins (owner.QueryRange), so a range
// never reaches the cloud as one. SearchRange stays on Backend only while
// the benchmark's traced backend forwards it; a caller that still reaches it
// sees an error through LogicalErrCount, never an empty answer.
var ErrNoRangeSearch = errors.New("wire: the cloud serves no range search; search the covering bins")

// Backend is the owner-side view of a remote cloud namespace:
// cloud.PlainBackend plus technique.EncStore (the one encrypted-store
// contract) plus the lifecycle and error surface. *StoreClient is its one
// implementation over the network — whatever the link beneath it (one
// connection or a reconnecting one) — so callers pick self-healing and
// namespacing without changing anything else.
type Backend interface {
	cloud.PlainBackend
	technique.EncStore

	// SearchRange records ErrNoRangeSearch and returns nil.
	SearchRange(lo, hi relation.Value) []relation.Tuple

	// Lifecycle and errors.
	Ping() error
	Flush() error
	Err() error
	LogicalErr() error
	LogicalErrCount() uint64
	Close() error

	// SetAdminToken attaches the namespace's control-plane owner token
	// (see OwnerToken): writes carry it so the first write claims the
	// namespace for the owner.
	SetAdminToken(tok []byte)
}

// Transport is a shared connection to one cloud (or, in internal/ring, a
// router over a ring of them) from which per-namespace Backend views are
// derived. It is what a process serving several relations holds once and
// shares.
type Transport interface {
	// Store returns the Backend view of the named namespace ("" selects
	// DefaultStore). The same name always yields the same view.
	Store(name string) Backend
	// Ping checks liveness (performing the handshake if needed).
	Ping() error
	// Close tears down the transport and every view derived from it.
	Close() error
}

var _ Backend = (*StoreClient)(nil)

var (
	_ Transport = (*Client)(nil)
	_ Transport = (*Reconnector)(nil)
)
