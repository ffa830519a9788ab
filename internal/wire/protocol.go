// Package wire implements a multiplexed owner↔cloud network protocol so
// the untrusted cloud can run as a separate process: length-prefixed
// frames over any net.Conn carrying one field-wise binary codec for every
// op (codec.go), a server hosting any number of named store pairs
// (clear-text + encrypted), and one client view type — StoreClient —
// that plugs into the owner as a cloud.PlainBackend and into any
// technique as a technique.EncStore, whatever carries its requests: a
// Client (one connection) or a Reconnector (a self-healing connection).
//
// Every request carries a client-assigned ID echoed by its response, so
// many calls can be in flight on one connection at once: each client
// caller frames its own request under the connection's one send lock
// (frameWriter, frame.go) and a reader goroutine demultiplexes responses
// by ID back to the waiting callers, and the server dispatches the ops
// decoded from one connection concurrently through a bounded worker pool,
// serialising only the response frames through the same frameWriter.
// Responses may therefore arrive in any order; ordering guarantees come
// from callers blocking on their own response, not from the transport.
//
// Namespaces: every request addresses a named store, so one cloud serves
// any number of independently keyed relations side by side (the
// multi-relation outsourcing model of the paper's successors). A
// connection is shared across namespaces — WithStore on a Client or a
// Reconnector returns the namespace's *StoreClient, the only
// Backend implementation in this package, which owns everything that is
// per namespace (upload buffer and retained uploads, address arithmetic,
// the clear-text length it saw acknowledged, owner token, logical-error
// record) and reaches the cloud through the link it was derived from —
// and the server keeps per-store state and per-store locks, so tenants
// never contend except on the transport itself.
//
// The protocol is versioned: every connection opens with an opHello
// carrying ProtocolVersion, an ordinary frame in the one codec. A server
// refuses to dispatch anything before a matching hello (it answers with
// an explicit version-mismatch error instead of misrouting the op into a
// default namespace), and a client refuses to proceed against a server
// that cannot echo its version — so mixing protocol generations fails at
// the first call rather than corrupting either side's stores. A gob-era
// (≤ v6) peer cannot parse a frame at all: its first message reads as an
// oversized length prefix, so either side just closes the connection.
// Large row pulls stream in bounded chunks (see frame.go).
//
// Each read shape has one op. opEncFetchBatch serves one address list per
// query of a batched search in a single round trip, so a remote QueryBatch
// avoids paying one network latency per query; a single fetch is a batch
// of one list. opEncAttrColumnIf and opEncRowsIf are the conditional
// column and row pulls, opPlainSearch the conditional bin search; a full
// pull or search is the conditional one from the zero version, which no
// store matches.
//
// The control plane rides the same protocol: namespace lifecycle ops
// (list/stats/drop) authenticated by a per-namespace owner token
// derived from the owner's master key (OwnerToken; the cloud stores only
// its hash, claimed by the namespace's first write), a Reconnector that
// survives transport failure by redialing, re-handshaking and having each
// view derived from it check its namespace by count (retained uploads
// replay exactly once; lost clear-text tuples fail the view), and one
// admission level: a per-connection bound on ops in flight.
//
// The protocol deliberately mirrors what the paper's adversary observes:
// the clear-text side travels in the clear (the cloud owns that data
// anyway), while the encrypted side carries only ciphertexts, tokens and
// addresses. A production deployment would wrap the conn in TLS (the paper
// assumes a secure channel against eavesdroppers); that is orthogonal to
// the protocol.
package wire

import (
	"strings"

	"repro/internal/relation"
	"repro/internal/storage"
)

// ProtocolVersion is the wire protocol generation: 14, with the op table
// below (20 ops), the request and response envelopes' fields in
// declaration order, and every chunk of a streamed row response declaring
// the stream's row total in N (codec.go). Both ends send it in the
// opHello frame, and a mismatch in either direction fails the connection
// with an explicit version error before any other op runs; a peer from
// before the field-wise codec (version 7) shows up as a closed connection
// instead.
// How earlier versions differed is in the git history and CHANGES.md.
const ProtocolVersion = 14

// DefaultStore is the namespace used when a request names none — the
// single implicit store of protocol v1, preserved so one-relation
// deployments need no configuration.
const DefaultStore = "default"

// op identifies a request type.
type op uint8

const (
	opPlainLoad op = iota + 1
	opPlainSearch
	opPlainInsert
	opEncAddBatch
	opEncLookupToken
	opPing
	// opEncFetchBatch serves a whole batch's bin fetches in one round
	// trip: one address list per query in, one row set per query out.
	opEncFetchBatch
	// opHello is the mandatory first frame on a connection: it carries
	// the client's ProtocolVersion and is echoed with the server's, so a
	// version skew fails the connection explicitly before any op can be
	// misrouted.
	opHello

	// Control-plane ops. opAdminList enumerates hosted namespaces (names
	// only — discovery needs no secret). The per-namespace ops are guarded
	// by the namespace's owner token (request.AdminToken): the cloud keeps
	// only a hash of the token, registered by the first tokened write to
	// the namespace, so only the data owner — who derives the token from
	// the master key — can inspect or destroy an outsourced partition.
	opAdminList
	opAdminStats
	opAdminDrop

	// Version-validated caching ops (protocol v4). opEncVersion returns the
	// namespace's current storage.EncVersion. opEncAttrColumnIf and
	// opEncRowsIf are the column and row pulls: the request carries the
	// epoch the client's cache was validated at plus how many rows it
	// holds, and the server answers with only the missing suffix (delta) —
	// an empty delta being a tiny not-modified frame — or the full set when
	// the epoch does not match (always, from the zero version).
	opEncVersion
	opEncAttrColumnIf
	opEncRowsIf

	// Ring plane (protocol v5). opRingDirectory asks a qbring coordinator
	// for the placement directory, answered whole as an opaque gob blob.
	// opStoreInfo is the cheap divergence probe — existence, row counts
	// and the (epoch, N) version of one namespace on one node; it needs no
	// secret, like opAdminList, and is also every view's row-count probe
	// (protocol v12). The remaining
	// three move replica state between ring peers and are guarded by the
	// cluster's ring token (request.RingToken), a secret shared by the
	// nodes and the coordinator but never by tenants: opStoreSnapshot
	// exports one namespace as a self-contained snapshot blob,
	// opStoreRestore installs such a blob wholesale (the fresh/lagging-
	// node rejoin path), and opRepairAppend appends a tail delta of
	// encrypted rows with a compare-and-swap on the replica's current
	// length (the anti-entropy path).
	opRingDirectory
	opStoreInfo
	opStoreSnapshot
	opStoreRestore
	opRepairAppend

	// opRingRepair (protocol v6) asks a qbring coordinator to run one
	// targeted anti-entropy round for the named namespace right now,
	// bypassing the sweep's divergence grace window. It exists for the
	// write path: when a writer readmitting a quarantined replica finds it
	// still short, waiting out the background sweep interval would leave
	// reads pinned to stale replicas for seconds; a targeted repair closes
	// the gap in one round trip. Like opStoreInfo it needs no secret — it
	// can only trigger work the coordinator performs on its own schedule
	// anyway, and the repair transfer itself is still ring-token-guarded
	// node-side.
	opRingRepair

	opEnd // one past the last op: new ops go above this line
)

// known reports whether o is in the op table; the codec refuses anything
// else.
func (o op) known() bool { return o >= opPlainLoad && o < opEnd }

// request is the single wire request envelope; fields are populated
// according to Op.
type request struct {
	// ID is assigned by the client, unique per connection, and echoed in
	// the matching response so concurrent in-flight calls can share one
	// connection.
	ID uint64
	Op op

	// Store names the namespace the op addresses; empty selects
	// DefaultStore. Ignored by opHello/opPing.
	Store string

	// Version is the client's ProtocolVersion (opHello only).
	Version int

	// AdminToken carries the namespace's owner token. On write ops
	// (opPlainLoad/opPlainInsert/opEncAddBatch) it registers the owner on
	// first write; on per-namespace admin ops it authenticates the caller.
	AdminToken []byte

	// Clear-text store fields.
	Schema relation.Schema
	Tuples []relation.Tuple
	Attr   string
	Values []relation.Value
	Tuple  relation.Tuple

	// Encrypted store fields.
	Token []byte
	Batch []EncUpload
	// AddrBatches is one address list per query (opEncFetchBatch).
	AddrBatches [][]int

	// Conditional-pull fields (opEncAttrColumnIf/opEncRowsIf): the epoch
	// the client's cache was last validated at and how many rows it holds.
	// opPlainSearch carries its held bin's (CondEpoch, Have).
	// The mutation ops reuse Have as their length CAS: opEncAddBatch and
	// opPlainInsert apply only if the partition still holds exactly Have
	// rows/tuples, answering a stale-write error (see IsStaleWrite)
	// otherwise — a Have below zero included. An opPlainInsert whose own
	// tuple already sits at position Have was applied before (a retry
	// whose acknowledgment was lost) and is acknowledged, not refused.
	CondEpoch uint64
	Have      int

	// RingToken authenticates intra-ring repair ops (opStoreRestore,
	// opRepairAppend): the cluster secret shared by nodes and the
	// coordinator, independent of any tenant's owner token. Servers not
	// configured with a ring token refuse these ops outright.
	RingToken []byte

	// Blob carries an opaque payload: the namespace snapshot installed by
	// opStoreRestore. (opRepairAppend reuses Batch for its rows and Have
	// for the length CAS.)
	Blob []byte
}

// EncUpload is one encrypted row in a batched upload.
type EncUpload struct {
	TupleCT []byte
	AttrCT  []byte
	Token   []byte
}

// response is the single wire response envelope.
type response struct {
	// ID echoes the request ID this response answers.
	ID   uint64
	Err  string
	Addr int
	// N is a count: tuples loaded, rows appended, and on a row pull the
	// rows of the whole response, declared on every chunk of its stream.
	N      int
	Tuples []relation.Tuple
	Rows   []storage.EncRow
	Addrs  []int
	// RowBatches is one row set per requested address list
	// (opEncFetchBatch), indexed like request.AddrBatches.
	RowBatches [][]storage.EncRow
	// Version is the server's ProtocolVersion (opHello only).
	Version int
	// Names lists hosted namespaces (opAdminList).
	Names []string
	// Stats is one namespace's accounting (opAdminStats).
	Stats StoreStats

	// Version-counter fields (opEncVersion and the conditional pulls): the
	// namespace's current version, and whether Rows is a suffix delta
	// relative to request.Have (true) or a full resend (false). On chunked
	// responses these ride every chunk; the client keeps the first chunk's
	// values. opPlainSearch's Delta means "not modified": no Tuples.
	VerEpoch uint64
	VerN     uint64
	Delta    bool

	// Blob carries an opaque payload out: the directory blob
	// (opRingDirectory) or a namespace snapshot (opStoreSnapshot).
	Blob []byte
	// Info is one namespace's replica state on this node (opStoreInfo).
	Info StoreInfo

	// attrOnly is not on the wire: the server sets it on a column pull,
	// whose Rows are the store's full snapshot rows, so they are encoded
	// as their (Addr, AttrCT) projection without being copied.
	attrOnly bool
}

// StoreInfo is the divergence probe's answer: what one node holds for one
// namespace. Replicas of a namespace never share an epoch (epochs are
// per-instance random), so divergence detection compares the row counts —
// within one epoch the encrypted column is append-only, making "same
// length" equivalent to "same content" for replicas fed the same write
// stream in the same order.
type StoreInfo struct {
	// Exists reports whether the node hosts the namespace at all; the
	// probe never creates it.
	Exists bool
	// PlainTuples counts the clear-text partition's tuples (-1 when no
	// relation is loaded), EncRows the encrypted partition's rows.
	PlainTuples int
	EncRows     int
	// VerEpoch/VerN is the encrypted store's (epoch, N) version.
	VerEpoch uint64
	VerN     uint64
	// Claimed reports whether the namespace is owner-claimed.
	Claimed bool
}

// staleWriteMark prefixes every server-side stale-write rejection so the
// condition survives the string-typed error channel of the protocol.
const staleWriteMark = "wire: stale write"

// IsStaleWrite reports whether err is a server's rejection of a
// conditional mutation (opPlainInsert/opEncAddBatch) whose expected length
// no longer matched. Nothing was applied: the server's
// partition moved underneath the writer — anti-entropy repair caught the
// replica up, or another writer shares the namespace — so the addresses
// the writer computed can no longer be honoured and it must re-learn the
// length before writing again. A ring client treats the refusing replica
// exactly like one that missed the write: quarantined until repair
// restores parity.
func IsStaleWrite(err error) bool {
	return err != nil && strings.Contains(err.Error(), staleWriteMark)
}

// storeName canonicalises a request's namespace.
func storeName(s string) string {
	if s == "" {
		return DefaultStore
	}
	return s
}
