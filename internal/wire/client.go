package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/relation"
	"repro/internal/storage"
)

// Client is one owner-side connection to a remote cloud. It serves any
// number of namespaces: WithStore returns the per-namespace StoreClient
// view implementing cloud.PlainBackend for the clear-text partition and
// technique.EncStore for the encrypted partition, so the standard
// owner and techniques work over the network unchanged. The Client itself
// holds no namespace state: it is the link its views reach the cloud
// through, plus the store-less planes (Ping, admin ops, ring ops).
//
// The connection is multiplexed: every request carries an ID, each caller
// frames its own request under the connection's one send lock, and a
// reader goroutine routes each response back to its caller, so any number
// of calls can be in flight at once without head-of-line blocking. The
// batch query engine therefore gains real cloud-side parallelism through a
// remote backend.
//
// The first round trip performs the protocol handshake (opHello): a
// server that cannot echo ProtocolVersion poisons the client with an
// explicit version-mismatch error, so generation skew fails at the first
// call instead of corrupting frames.
//
// Error semantics: only transport failures are sticky. The first one
// poisons the client — every in-flight and subsequent call fails with the
// same cause, exposed by Err(). Server-side logical errors (e.g. a Search
// before any Load) are per-call and are recorded by the namespace view
// that made the call (see StoreClient.LogicalErr), never by the
// connection.
//
// Client is safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader // readLoop's buffered view of conn

	// readBuf is readLoop's frame scratch, grown to the largest frame
	// seen and reused; decoded frames are arena-copied out of it.
	readBuf []byte

	// send is the one path requests leave by; dead is closed on the
	// first transport failure so callers awaiting a response are released.
	send frameWriter
	dead chan struct{}

	mu       sync.Mutex
	err      error // sticky transport error
	nextID   uint64
	inflight map[uint64]chan *response

	// helloOnce runs the version handshake before the first real op;
	// helloErr is its sticky outcome.
	helloOnce sync.Once
	helloErr  error

	stores views
}

// Dial connects to a remote cloud at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. net.Pipe in tests) and
// starts its reader goroutine.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		br:       bufio.NewReader(conn),
		send:     frameWriter{conn: conn},
		dead:     make(chan struct{}),
		inflight: make(map[uint64]chan *response),
	}
	go c.readLoop()
	return c
}

// WithStore returns the view of the named server-side namespace ("" means
// DefaultStore). Views share the connection, its multiplexing and its
// sticky error, but each has its own upload buffer, address arithmetic
// and logical-error record, so differently keyed relations can ride one
// transport without interleaving. The same name always yields the same
// view.
func (c *Client) WithStore(name string) *StoreClient {
	return c.stores.get(name, func(name string) *StoreClient {
		return &StoreClient{store: name, link: c}
	})
}

// Store implements Transport: the Backend view of one namespace.
func (c *Client) Store(name string) Backend { return c.WithStore(name) }

// Close closes the connection and releases every in-flight call: they
// and all later calls fail with a client-closed error. An explicit Close
// is a clean shutdown, not a transport failure, so it does not surface
// through Err.
func (c *Client) Close() error {
	return c.shutdown(errClientClosed)
}

// Err returns the sticky transport error, if any. Logical (server-side)
// errors never poison the client (see StoreClient.LogicalErr), and an
// explicit Close is not a failure.
func (c *Client) Err() error {
	if err := c.stickyErr(); err != errClientClosed {
		return err
	}
	return nil
}

// Ping checks liveness (and, on first use, performs the handshake).
func (c *Client) Ping() error {
	_, err := c.roundTrip(&request{Op: opPing})
	return err
}

// acquire implements link: a bare connection is its own only generation —
// itself while healthy, its sticky error (an explicit Close included)
// after.
func (c *Client) acquire() (*Client, error) { return c, c.stickyErr() }

// budget implements link: nothing beneath a bare connection can heal it,
// so one attempt per op.
func (c *Client) budget() int { return 1 }

// --- the connection seam --------------------------------------------------

// link is the seam between a namespace view and whatever carries its
// requests. The view asks for a live connection per attempt and never
// learns whether it got the one connection it was derived from (*Client)
// or the current generation of a self-healing one (*Reconnector).
// Reconnection and the view are therefore two layers of one algorithm
// instead of two copies of it.
type link interface {
	// acquire returns a live connection for one attempt of an op, or the
	// reason there is none. It may block through a reconnect cycle, and
	// that cycle calls the restore hook of the views derived from the link
	// — so it must never be called with a view's bufMu or plainMu held.
	acquire() (*Client, error)
	// budget bounds the attempts one op makes while its failures are the
	// transport's.
	budget() int

	Ping() error
	Err() error
	Close() error
}

// views is a link's registry of namespace views: the same name always
// yields the same view.
type views struct {
	mu sync.Mutex
	m  map[string]*StoreClient
}

// get returns the view registered under name ("" means DefaultStore),
// creating it with mk — under the registry lock — on first use.
func (r *views) get(name string, mk func(name string) *StoreClient) *StoreClient {
	name = storeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.m[name]; ok {
		return s
	}
	if r.m == nil {
		r.m = make(map[string]*StoreClient)
	}
	s := mk(name)
	r.m[name] = s
	return s
}

// list snapshots the registered views.
func (r *views) list() []*StoreClient {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*StoreClient, 0, len(r.m))
	for _, s := range r.m {
		out = append(out, s)
	}
	return out
}

// --- StoreClient --------------------------------------------------------

// StoreClient is one namespace's view of a cloud, and the only Backend
// implementation in this package. It implements the full surface —
// cloud.PlainBackend plus technique.EncStore — scoped to its store:
// every request it frames carries the store name, and it owns everything
// that is per namespace rather than per connection: the owner token, the
// encrypted upload buffer and client-side address arithmetic, the
// clear-text length mirror, the clear-text replay mirror, and the
// logical-error record. It reaches the cloud through a link (a connection
// or a reconnecting connection) and retries each op through fresh
// connections until it succeeds, fails logically, or the link's budget is
// spent.
//
// StoreClient is safe for concurrent use.
type StoreClient struct {
	store string
	link  link
	// replays marks a view whose link heals itself (a Reconnector):
	// only such a view pays for the clear-text replay mirror, because only
	// its link ever calls restore.
	replays bool

	// adminMu guards adminToken: the namespace's control-plane owner
	// token, attached to write requests so the first write claims the
	// namespace (see SetAdminToken).
	adminMu    sync.Mutex
	adminToken []byte

	// bufMu guards the encrypted-upload buffer. It is held across the
	// flush round trip so the buffer and serverLen stay consistent with
	// the server, and by restore while it reconciles them against a fresh
	// connection.
	bufMu   sync.Mutex
	pending []EncUpload
	// serverLen tracks the server-side row count of this namespace after
	// the last acknowledged flush, so Add can assign addresses without a
	// round trip. It is synced from the server on first use (lenSynced),
	// so a fresh client attaching to an already-populated store does not
	// hand out addresses that collide with existing rows.
	serverLen int
	lenSynced bool

	// plainMu guards the clear-text partition's length mirror and replay
	// mirror, held across the load/insert round trip so concurrent Inserts
	// CAS against consecutive lengths instead of racing each other, and so
	// a reconnect's re-Load (restore takes it too) can never slip between
	// an acknowledgment and the mirror commit that records it. Lock order:
	// plainMu before bufMu (Load and Insert flush while holding plainMu).
	plainMu     sync.Mutex
	plainLen    int
	plainSynced bool
	// rel/attr mirror what the cloud's clear-text partition must hold — the
	// relation last shipped with Load plus every acknowledged Insert since
	// (the price of transparent retry is an owner-side copy of the plain
	// partition). nil before Load, and always nil unless replays.
	rel  *relation.Relation
	attr string

	// The view's own logical-error record: errors its void interface
	// methods swallowed into zero values. Per namespace, so one tenant's
	// failing op never shows up in another tenant's bracket.
	logMu    sync.Mutex
	logical  error
	logicalN uint64
}

// StoreName returns the namespace this view addresses.
func (s *StoreClient) StoreName() string { return s.store }

// SetAdminToken attaches the namespace's owner token (see OwnerToken) to
// this view: every write request carries it, so the first write registers
// the caller as the namespace's owner and the matching admin ops (stats,
// drop, compact) become available to whoever holds the master key. A nil
// token leaves the namespace unclaimed — and its admin ops permanently
// refused until a tokened writer claims it.
func (s *StoreClient) SetAdminToken(tok []byte) {
	s.adminMu.Lock()
	s.adminToken = cloneBytes(tok)
	s.adminMu.Unlock()
}

// ownerToken returns the view's owner token (nil when unset).
func (s *StoreClient) ownerToken() []byte {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	return s.adminToken
}

// attempt is the one retry loop: it runs f against a live connection from
// the link, and again through a fresh one for as long as f's failure is
// the transport's and the link's budget lasts. Logical errors return
// immediately — retrying cannot help. f must take the view's locks itself
// (acquire runs lock-free, see link).
func (s *StoreClient) attempt(f func(c *Client) error) error {
	var lastErr error
	for i := 0; i < s.link.budget(); i++ {
		c, err := s.link.acquire()
		if err != nil {
			return err
		}
		if err = f(c); err == nil || c.stickyErr() == nil {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// roundTrip performs one request against the view's namespace under the
// retry loop.
func (s *StoreClient) roundTrip(req *request) (resp *response, err error) {
	req.Store = s.store
	err = s.attempt(func(c *Client) error {
		resp, err = c.roundTrip(req)
		return err
	})
	return resp, err
}

// read makes the namespace's buffered uploads durable and performs one
// read round trip. The nothing-buffered fast path is one mutex acquisition.
func (s *StoreClient) read(req *request) (*response, error) {
	s.bufMu.Lock()
	buffered := len(s.pending) > 0
	s.bufMu.Unlock()
	if buffered {
		if err := s.Flush(); err != nil {
			return nil, err
		}
	}
	return s.roundTrip(req)
}

// Ping checks liveness of the link.
func (s *StoreClient) Ping() error { return s.link.Ping() }

// Err returns the link's sticky error: the connection's, or the
// Reconnector's permanent failure.
func (s *StoreClient) Err() error { return s.link.Err() }

// LogicalErr returns the most recent error swallowed by one of this
// view's interface methods that cannot return one (Search, Len, ...):
// usually a server-side logical error, but also transport failures and
// use-after-close those methods turned into zero values. A logical error
// never poisons the connection, so this is a per-op record: later
// successful calls do not clear it, later failing calls overwrite it.
func (s *StoreClient) LogicalErr() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logical
}

// LogicalErrCount reports how many times a void interface method of this
// view has recorded an error; monotonic across reconnects. Callers
// bracketing a batch of operations (e.g. one query) snapshot it before
// and compare after: a changed count means some op in the window failed
// silently — without the races of a shared take-and-clear slot under
// concurrent batches, and without seeing any other namespace's failures.
func (s *StoreClient) LogicalErrCount() uint64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logicalN
}

// noteLogical records a per-op error a void interface method is about to
// swallow (nil is not an error). Transport failures and use-after-close
// are recorded too, so windows bracketed by LogicalErrCount observe them
// even when Err() alone would not surface them (a clean close).
func (s *StoreClient) noteLogical(err error) {
	if err == nil {
		return
	}
	s.logMu.Lock()
	s.logical = err
	s.logicalN++
	s.logMu.Unlock()
}

// Close closes the SHARED link: every view on it dies with it. A caller
// owning several views (e.g. a vertical client's two namespaces) should
// close once, through whichever handle it keeps.
func (s *StoreClient) Close() error { return s.link.Close() }

// Info probes the namespace's replica state — existence, row counts, the
// encrypted store's version. Ring clients use it as the readmission
// parity probe: unlike Len it covers the clear-text partition too, so a
// replica whose plain tuples still lag repair is not readmitted on
// encrypted parity alone.
func (s *StoreClient) Info() (StoreInfo, error) {
	resp, err := s.roundTrip(&request{Op: opStoreInfo})
	if err != nil {
		return StoreInfo{}, err
	}
	return resp.Info, nil
}

// --- cloud.PlainBackend -----------------------------------------------

// Load implements cloud.PlainBackend: ships the non-sensitive relation to
// the view's namespace in clear-text. Over a self-healing link it also
// mirrors the relation owner-side, so a reconnect can rebuild a cloud that
// restarted from a stale (or no) snapshot. The mirror is committed only
// once the cloud has accepted the relation — a logically rejected Load
// must not become the relation every future reconnect replays (and fails
// on, permanently).
func (s *StoreClient) Load(rns *relation.Relation, attr string) error {
	return s.attempt(func(c *Client) error {
		s.plainMu.Lock()
		defer s.plainMu.Unlock()
		if err := s.flushOn(c); err != nil {
			return err
		}
		resp, err := c.roundTrip(&request{
			Op: opPlainLoad, Store: s.store, Schema: rns.Schema, Tuples: rns.Tuples, Attr: attr, AdminToken: s.ownerToken(),
		})
		if err != nil {
			return err
		}
		s.plainLen, s.plainSynced = resp.N, true
		if s.replays {
			s.rel, s.attr = rns.Clone(), attr
		}
		return nil
	})
}

// SearchErr is Search with the error surfaced instead of recorded (ring
// failover needs the per-replica outcome).
func (s *StoreClient) SearchErr(values []relation.Value) ([]relation.Tuple, error) {
	resp, err := s.read(&request{Op: opPlainSearch, Values: values})
	if err != nil {
		return nil, err
	}
	return resp.Tuples, nil
}

// Search implements cloud.PlainBackend.
func (s *StoreClient) Search(values []relation.Value) []relation.Tuple {
	ts, err := s.SearchErr(values)
	s.noteLogical(err)
	return ts
}

// SearchRange is the Backend pin (see ErrNoRangeSearch): it records
// ErrNoRangeSearch and answers nothing.
func (s *StoreClient) SearchRange(_, _ relation.Value) []relation.Tuple {
	s.noteLogical(ErrNoRangeSearch)
	return nil
}

// Insert implements cloud.PlainBackend. Inserts are conditional on the
// relation's tuple count (protocol v6): the view mirrors the count —
// seeded by Load, lazily probed via opStoreInfo otherwise, advanced per
// acknowledged insert — and the server applies the insert only if it
// still matches, so an insert racing an anti-entropy restore of the same
// replica cannot land twice. A stale-write refusal (IsStaleWrite) drops
// the mirror; the next insert re-probes before writing.
//
// Over a self-healing link the insert is exactly-once when a Load went
// through this view: a reconnect always re-Loads the replay mirror before
// any retry can run, so an insert whose acknowledgment died with the
// connection was either never applied (the retry inserts it once) or was
// erased by the re-Load of the t-less mirror (the retry re-inserts it
// once); and an acknowledged tuple joins the mirror under the same plainMu
// hold as its round trip, so no re-Load can ship a mirror that misses it.
// Without a mirrored Load (a resumed session that never shipped the
// relation through this view) a lost acknowledgment may duplicate the
// insert on retry.
func (s *StoreClient) Insert(t relation.Tuple) error {
	return s.attempt(func(c *Client) error {
		s.plainMu.Lock()
		defer s.plainMu.Unlock()
		if err := s.flushOn(c); err != nil {
			return err
		}
		if !s.plainSynced {
			resp, err := c.roundTrip(&request{Op: opStoreInfo, Store: s.store})
			if err != nil {
				return err
			}
			if resp.Info.PlainTuples < 0 {
				return fmt.Errorf("wire: insert: no relation loaded in store %q", s.store)
			}
			s.plainLen, s.plainSynced = resp.Info.PlainTuples, true
		}
		_, err := c.roundTrip(&request{Op: opPlainInsert, Store: s.store, Tuple: t, AdminToken: s.ownerToken(), Have: s.plainLen})
		if err != nil {
			if c.stickyErr() == nil && IsStaleWrite(err) {
				s.plainSynced = false
			}
			return err
		}
		s.plainLen++
		if s.rel != nil {
			// Mirror maintenance failing (schema drift) is impossible when
			// the cloud accepted the same tuple against the same schema;
			// ignore the error by symmetry.
			_ = s.rel.Append(t.Clone())
		}
		return nil
	})
}

// --- technique.EncStore -------------------------------------------------

// Add implements technique.EncStore. Uploads are buffered; they are
// flushed automatically before any read operation, or explicitly with
// Flush. The returned address is computed client-side (the server assigns
// addresses sequentially in upload order, per namespace). The buffer
// belongs to the view, not to a connection, so it survives reconnects
// until a flush is acknowledged.
func (s *StoreClient) Add(tupleCT, attrCT, token []byte) int {
	addr := -1
	err := s.attempt(func(c *Client) error {
		s.bufMu.Lock()
		defer s.bufMu.Unlock()
		if !s.lenSynced {
			resp, err := c.roundTrip(&request{Op: opEncLen, Store: s.store})
			if err != nil {
				return err
			}
			s.serverLen, s.lenSynced = resp.N, true
		}
		addr = s.serverLen + len(s.pending)
		s.pending = append(s.pending, EncUpload{
			TupleCT: cloneBytes(tupleCT), AttrCT: cloneBytes(attrCT), Token: cloneBytes(token),
		})
		return nil
	})
	if err != nil {
		s.noteLogical(err)
		return -1
	}
	return addr
}

// Flush uploads any pending encrypted rows. On failure the rows stay
// buffered — their addresses were already handed out by Add, so dropping
// them would silently corrupt the technique's index — and a later Flush
// retries them; over a self-healing link a flush interrupted by connection
// death is completed by the reconnect cycle's replay (exactly once — see
// restore). The link's sticky error surfaces even with nothing buffered:
// after a transport failure Add buffers nothing, so an empty-pending nil
// would let an Outsource over a dead connection report success.
func (s *StoreClient) Flush() error { return s.attempt(s.flushOn) }

// flushOn uploads the pending rows over c. It takes bufMu but never
// acquires, so callers already holding plainMu (and a connection) use it
// directly.
func (s *StoreClient) flushOn(c *Client) error {
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	return s.flushLocked(c)
}

// flushLocked is flushOn with bufMu held.
func (s *StoreClient) flushLocked(c *Client) error {
	if len(s.pending) == 0 {
		return nil
	}
	// The batch is conditional on the row count its addresses were
	// assigned at (protocol v6): pending is never non-empty without a
	// synced length (Add probes before buffering, and every path that
	// drops the length empties pending), and the server applies the batch
	// only if the store still holds exactly serverLen rows. A flush racing
	// an anti-entropy repair of this replica — which can append these very
	// rows, copied from a peer that acked them — is refused instead of
	// doubling the tail.
	resp, err := c.roundTrip(&request{Op: opEncAddBatch, Store: s.store, Batch: s.pending, AdminToken: s.ownerToken(), Have: s.serverLen})
	if err != nil {
		if c.stickyErr() == nil && IsStaleWrite(err) {
			// Nothing was applied, but the base address moved: the buffered
			// rows' handed-out addresses can only ever be honoured at the
			// probed base, so retrying is pointless. Drop them and the
			// length mirror — in a ring this replica is quarantined on the
			// error and anti-entropy re-materialises the rows from a
			// replica that acked; readmission's ResyncLen would refuse
			// while they were retained.
			s.pending = nil
			s.lenSynced = false
			s.serverLen = 0
			return fmt.Errorf("wire: flush: store %q: %w", s.store, err)
		}
		// Keep the batch buffered for retry: its addresses were already
		// handed out by Add, so dropping the rows would silently corrupt
		// the technique's index. If the server rejected the batch
		// logically the connection is still healthy; confirm via opEncLen
		// that nothing was applied, in which case the retained addresses
		// are still the ones a retry will materialise. A shifted length
		// means the batch was partially applied and the handed-out
		// addresses can no longer be honoured — no retry can fix that, so
		// fail the connection loudly rather than let every later Fetch
		// return the wrong row.
		if c.stickyErr() == nil {
			if lenResp, lerr := c.roundTrip(&request{Op: opEncLen, Store: s.store}); lerr == nil && lenResp.N != s.serverLen {
				c.fail(fmt.Errorf(
					"wire: flush: store %q length %d after rejected batch, expected %d: batch partially applied, handed-out addresses lost (%w)",
					s.store, lenResp.N, s.serverLen, err))
			}
		}
		return err
	}
	// bufMu is held across the whole round trip and Add requires it too,
	// so pending cannot have grown since the batch was sent.
	s.pending = nil
	s.serverLen += resp.N
	return nil
}

// restore is the hook a self-healing link calls, on a fresh handshaken
// connection nobody else can see yet, for every view derived from it: make
// the cloud's copy of this namespace agree with the view again. It
//
//  1. re-Loads the clear-text replay mirror (the cloud may have restarted
//     from a snapshot that predates recent plain writes — re-loading makes
//     the plain partition exactly the owner's copy), and
//  2. reconciles the encrypted row count (opEncLen) against the
//     acknowledged count plus the retained upload buffer, replaying the
//     retained uploads whose flush never got an acknowledgment.
//
// The opEncLen arithmetic makes flush replay exactly-once: a batch whose
// acknowledgment was lost in the crash is detected as already applied
// (server count == acknowledged + retained) and not replayed; a batch the
// server never saw is replayed at the exact addresses Add handed out
// (server count == acknowledged). Any other count is unreconcilable —
// handed-out addresses can no longer be honoured. restore is idempotent
// across attempts: a replay applied before the cycle's next failure is
// detected as applied by the same arithmetic. An error with c still
// healthy is the cloud's verdict, hence permanent; with c dead it is one
// more transport failure and the cycle redials.
func (s *StoreClient) restore(c *Client) error {
	fail := func(what string, err error) error {
		return fmt.Errorf("wire: reconnect: store %q: %s: %w", s.store, what, err)
	}

	s.plainMu.Lock()
	// The length mirror described the dead connection's server; without a
	// replay mirror the next Insert re-probes it.
	s.plainSynced = false
	if s.rel != nil {
		resp, err := c.roundTrip(&request{
			Op: opPlainLoad, Store: s.store, Schema: s.rel.Schema, Tuples: s.rel.Tuples, Attr: s.attr, AdminToken: s.ownerToken(),
		})
		if err != nil {
			s.plainMu.Unlock()
			return fail("re-load", err)
		}
		s.plainLen, s.plainSynced = resp.N, true
	}
	s.plainMu.Unlock()

	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	if !s.lenSynced && len(s.pending) == 0 {
		return nil
	}
	probe := func() (int, error) {
		resp, err := c.roundTrip(&request{Op: opEncLen, Store: s.store})
		if err != nil {
			return 0, err
		}
		return resp.N, nil
	}
	n, err := probe()
	if err != nil {
		return fail("resync", err)
	}
	retained := len(s.pending)
	switch {
	case n == s.serverLen:
		// The server is exactly where the last acknowledged flush left
		// it: retained uploads replay at the addresses Add handed out.
		if err := s.flushLocked(c); err != nil {
			if !IsStaleWrite(err) || c.stickyErr() != nil {
				return fail("replaying retained uploads", err)
			}
			// The count moved between the probe and the replay — in a
			// ring, anti-entropy copying this very batch from a replica
			// that acked it before the crash. Only an exact
			// batch-already-present count reconciles; flushLocked already
			// dropped the retained rows either way.
			n2, err2 := probe()
			if err2 != nil {
				return fail("re-probing after stale replay", err2)
			}
			if n2 != n+retained {
				return fail("retained uploads lost to a concurrent write", err)
			}
			s.serverLen, s.lenSynced = n2, true
		}
	case n == s.serverLen+retained, retained == 0 && n > s.serverLen:
		// Either the batch was applied but its acknowledgment died with
		// the connection — replaying would double every row — or nothing
		// was retained and another writer appended; ours are all
		// accounted for.
		s.pending = nil
		s.serverLen = n
	default:
		return fmt.Errorf(
			"wire: reconnect: store %q: server has %d encrypted rows, cannot reconcile with %d acknowledged + %d retained (handed-out addresses lost)",
			s.store, n, s.serverLen, retained)
	}
	return nil
}

// ResyncLen drops the view's cached server-length arithmetic — the
// encrypted row count AND the clear-text tuple count — so the next Add or
// Insert re-reads the server's. A ring client readmitting a repaired
// replica uses it: anti-entropy appended rows (or restored tuples)
// server-side that this view never saw, so its cached lengths would hand
// out colliding addresses or fail every insert's CAS. It refuses while
// uploads are retained — those rows carry already-handed-out addresses
// that resyncing would orphan.
func (s *StoreClient) ResyncLen() error {
	s.plainMu.Lock()
	defer s.plainMu.Unlock()
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	if len(s.pending) > 0 {
		return fmt.Errorf("wire: resync len: store %q holds %d retained uploads whose addresses were already handed out", s.store, len(s.pending))
	}
	s.lenSynced = false
	s.serverLen = 0
	s.plainSynced = false
	s.plainLen = 0
	return nil
}

// LenErr is Len with the error surfaced.
func (s *StoreClient) LenErr() (int, error) {
	resp, err := s.read(&request{Op: opEncLen})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Len implements technique.EncStore.
func (s *StoreClient) Len() int {
	n, err := s.LenErr()
	s.noteLogical(err)
	return n
}

// AttrColumnErr is AttrColumn with the error surfaced: a pull from the
// zero version, which no namespace matches.
func (s *StoreClient) AttrColumnErr() ([]storage.EncRow, error) {
	rows, _, _, err := s.AttrColumnSince(storage.EncVersion{}, 0)
	return rows, err
}

// AttrColumn implements technique.EncStore.
func (s *StoreClient) AttrColumn() []storage.EncRow {
	rows, err := s.AttrColumnErr()
	s.noteLogical(err)
	return rows
}

// Fetch implements technique.EncStore as a fetch batch of one list.
func (s *StoreClient) Fetch(addrs []int) ([]storage.EncRow, error) {
	batches, err := s.FetchBatch([][]int{addrs})
	if err != nil {
		return nil, err
	}
	if len(batches) != 1 {
		return nil, fmt.Errorf("wire: fetch: store %q answered %d row sets for one address list", s.store, len(batches))
	}
	return batches[0], nil
}

// FetchBatch implements technique.EncStore: a single round trip returns
// the rows for every address list, so a batched search pays one network
// latency for the whole batch's bin fetches instead of one per query.
func (s *StoreClient) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	resp, err := s.read(&request{Op: opEncFetchBatch, AddrBatches: addrBatches})
	if err != nil {
		return nil, err
	}
	return resp.RowBatches, nil
}

// LookupTokenErr is LookupToken with the error surfaced.
func (s *StoreClient) LookupTokenErr(tok []byte) ([]int, error) {
	resp, err := s.read(&request{Op: opEncLookupToken, Token: tok})
	if err != nil {
		return nil, err
	}
	return resp.Addrs, nil
}

// LookupToken implements technique.EncStore.
func (s *StoreClient) LookupToken(tok []byte) []int {
	addrs, err := s.LookupTokenErr(tok)
	s.noteLogical(err)
	return addrs
}

// RowsErr is Rows with the error surfaced: a pull from the zero version.
func (s *StoreClient) RowsErr() ([]storage.EncRow, error) {
	rows, _, _, err := s.RowsSince(storage.EncVersion{}, 0)
	return rows, err
}

// Rows implements technique.EncStore.
func (s *StoreClient) Rows() []storage.EncRow {
	rows, err := s.RowsErr()
	s.noteLogical(err)
	return rows
}

// EncVersion implements technique.EncStore: the namespace's
// current version in one tiny round trip. An owner-side cache composes
// with reconnection for free: it is keyed by the store's version epoch,
// which survives a transport blip unchanged (same server process) and
// changes when the server was rebuilt from a snapshot — exactly the case
// where cached state must be refetched.
func (s *StoreClient) EncVersion() (storage.EncVersion, error) {
	resp, err := s.read(&request{Op: opEncVersion})
	if err != nil {
		return storage.EncVersion{}, err
	}
	return storage.EncVersion{Epoch: resp.VerEpoch, N: resp.VerN}, nil
}

// since performs a conditional row pull.
func (s *StoreClient) since(o op, v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	resp, err := s.read(&request{Op: o, CondEpoch: v.Epoch, CondN: v.N, Have: have})
	if err != nil {
		return nil, storage.EncVersion{}, false, err
	}
	return resp.Rows, storage.EncVersion{Epoch: resp.VerEpoch, N: resp.VerN}, resp.Delta, nil
}

// AttrColumnSince implements technique.EncStore: the conditional
// column pull. When the cache version v still matches the namespace's
// epoch, the response carries only the rows past have (delta=true; empty
// on a clean hit — a not-modified frame of a few bytes instead of the
// whole column); otherwise the full column comes back with delta=false.
func (s *StoreClient) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	return s.since(opEncAttrColumnIf, v, have)
}

// RowsSince implements technique.EncStore: the conditional full-
// row pull, same delta contract as AttrColumnSince.
func (s *StoreClient) RowsSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	return s.since(opEncRowsIf, v, have)
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
