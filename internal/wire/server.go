package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/storage"
)

// Cloud is the server-side state: a registry of named stores, each one
// clear-text store (loaded on demand) plus one encrypted store. It is
// what an honest-but-curious operator would run, serving any number of
// independently keyed relations side by side.
//
// Each connection is handled in its own goroutine, and the ops decoded
// from one connection are themselves dispatched concurrently, at most
// GOMAXPROCS at a time (responses are serialised by the connection's
// frameWriter, so frames never interleave). Locking is layered: the
// stores synchronise internally; each storage.Store's lock makes
// opPlainLoad exclusive against in-flight ops on the same namespace only;
// and the cloud-level lock is taken exclusively just by snapshot
// Save/Restore, which must quiesce every namespace at once.
//
// Connections must open with an opHello carrying ProtocolVersion; any
// other first frame is answered with an explicit version-mismatch error
// and the connection is closed, so a client that skips the handshake
// fails loudly instead of having its ops misrouted into the default store.
type Cloud struct {
	mu     sync.RWMutex // exclusive for Save/Restore, shared by dispatch
	stores *storage.StoreSet

	// connWorkers bounds concurrent dispatch per connection; 0 selects
	// GOMAXPROCS. Only tests set it, to pin the bound on any host.
	connWorkers int

	// statsMu guards the per-store op counters (read-mostly: the fast
	// path is a shared-lock map hit).
	statsMu    sync.RWMutex
	opCounts   map[string]*atomic.Uint64
	condCounts map[string]*atomic.Uint64

	// ringDir, when set (before Serve), makes this server a qbring
	// coordinator: it serves the placement directory through
	// opRingDirectory. The wire layer treats the directory as an opaque
	// blob; the provider synchronises internally.
	ringDir func() []byte
	// ringRepair, when set (before Serve, coordinator only), serves
	// opRingRepair: a targeted anti-entropy round for one namespace,
	// requested by a writer trying to readmit a quarantined replica.
	ringRepair func(store string) error
	// ringTokenHash is the hash of the cluster's ring token (nil disables
	// the ring-guarded repair ops); set before Serve.
	ringTokenHash []byte
}

// NewCloud returns an empty cloud.
func NewCloud() *Cloud {
	return &Cloud{
		stores:     storage.NewStoreSet(),
		opCounts:   make(map[string]*atomic.Uint64),
		condCounts: make(map[string]*atomic.Uint64),
	}
}

func (c *Cloud) workersPerConn() int {
	if c.connWorkers > 0 {
		return c.connWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// StoreNames returns the namespaces currently hosted, sorted.
func (c *Cloud) StoreNames() []string { return c.stores.Names() }

// StoreStats is the per-namespace accounting a multi-tenant operator
// watches: ops dispatched, clear-text tuples and encrypted rows held, and
// conditional pulls served as a delta (the client cache was valid and the
// full column transfer was skipped).
type StoreStats struct {
	Ops         uint64
	PlainTuples int
	EncRows     int
	CondHits    uint64
}

// Stats reports per-store statistics for every hosted namespace.
func (c *Cloud) Stats() map[string]StoreStats {
	out := make(map[string]StoreStats)
	for _, name := range c.stores.Names() {
		if st, ok := c.stores.Get(name); ok {
			out[name] = c.storeStats(name, st)
		}
	}
	return out
}

// storeStats is one namespace's accounting, for Stats and opAdminStats.
func (c *Cloud) storeStats(name string, st *storage.Store) StoreStats {
	s := StoreStats{
		EncRows:  st.Enc().Len(),
		Ops:      c.opCounter(name).Load(),
		CondHits: c.condCounter(name).Load(),
	}
	if ps := st.Plain(); ps != nil {
		s.PlainTuples = ps.Len()
	}
	return s
}

// opCounter returns the op counter for a namespace, creating it on first
// use.
func (c *Cloud) opCounter(name string) *atomic.Uint64 {
	return counterIn(&c.statsMu, &c.opCounts, name)
}

// condCounter returns the conditional-pull hit counter for a namespace,
// creating it on first use.
func (c *Cloud) condCounter(name string) *atomic.Uint64 {
	return counterIn(&c.statsMu, &c.condCounts, name)
}

// counterIn looks up (or installs) a named counter in a statsMu-guarded
// map; the fast path is a shared-lock map hit.
func counterIn(mu *sync.RWMutex, m *map[string]*atomic.Uint64, name string) *atomic.Uint64 {
	mu.RLock()
	ctr, ok := (*m)[name]
	mu.RUnlock()
	if ok {
		return ctr
	}
	mu.Lock()
	defer mu.Unlock()
	if ctr, ok := (*m)[name]; ok {
		return ctr
	}
	ctr = new(atomic.Uint64)
	(*m)[name] = ctr
	return ctr
}

// Serve accepts connections until the listener is closed, handling each
// connection in its own goroutine.
func (c *Cloud) Serve(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go c.ServeConn(conn)
	}
}

// errNoHello is the explicit refusal sent to a connection whose first
// frame is a well-formed op other than opHello.
var errNoHello = fmt.Sprintf(
	"wire: protocol version mismatch: server speaks v%d and requires an opHello handshake as the first frame; upgrade the client",
	ProtocolVersion)

// serverStream is the server side of one connection's framing: a
// reader-owned frame scratch, and the frameWriter that serialises sends
// from concurrent dispatch workers. The read side is touched only by the
// decode loop.
type serverStream struct {
	br      *bufio.Reader
	readBuf []byte
	send    frameWriter
}

func newServerStream(conn net.Conn) *serverStream {
	return &serverStream{br: bufio.NewReader(conn), send: frameWriter{conn: conn}}
}

// readRequest decodes one request frame.
func (s *serverStream) readRequest() (*request, error) {
	body, err := readFrame(s.br, &s.readBuf)
	if err != nil {
		return nil, err
	}
	return decodeRequest(body)
}

// writeResponse sends one response to an op-o request, streaming large
// row sets in bounded chunks.
func (s *serverStream) writeResponse(o op, resp *response) error {
	switch o {
	case opEncAttrColumnIf, opEncRowsIf:
		if resp.Err == "" && len(resp.Rows) > 0 {
			return s.writeChunkedRows(resp)
		}
	}
	return s.writeFrame(resp, 0)
}

func (s *serverStream) writeFrame(resp *response, flags byte) error {
	return s.send.write(func(b []byte) []byte { return appendResponse(b, resp, flags) })
}

// writeChunkedRows streams a large row set as a sequence of frames near
// chunkTarget bytes each, all but the last flagged partial. The send lock
// is taken per chunk, so responses to other in-flight ops may interleave
// between chunks — a big column pull does not head-of-line-block the
// connection; the client reassembles by ID, into one row slice sized by
// the total that N declares.
func (s *serverStream) writeChunkedRows(resp *response) error {
	rows := resp.Rows
	resp.N = len(rows)
	for {
		n, size := 0, 0
		for n < len(rows) && size < chunkTarget {
			r := &rows[n]
			size += 16 + len(r.AttrCT)
			if !resp.attrOnly {
				size += len(r.TupleCT) + len(r.Token)
			}
			n++
		}
		// Every other field rides every chunk (the client keeps the first
		// chunk's values).
		chunk := *resp
		chunk.Rows, rows = rows[:n], rows[n:]
		var flags byte
		if len(rows) > 0 {
			flags = respFlagPartial
		}
		if err := s.writeFrame(&chunk, flags); err != nil {
			return err
		}
		if len(rows) == 0 {
			return nil
		}
	}
}

// ServeConn serves one established connection (e.g. net.Pipe in tests and
// benchmarks) until it fails or closes, then closes it. The first frame
// must be a version-matched opHello; after it decoded requests are
// dispatched concurrently through the per-connection worker pool.
func (c *Cloud) ServeConn(conn net.Conn) {
	defer conn.Close()
	s := newServerStream(conn)

	// Handshake: decoded sequentially, before the dispatch pool spins up,
	// so no op can race past it.
	req, err := s.readRequest()
	if err != nil {
		// io.EOF is a clean shutdown; anything else — a gob-era peer's
		// opening bytes included — means the stream is not ours. Either
		// way no reply can safely be written: only well-formed frames
		// (with an ID to echo) get responses.
		return
	}
	if req.Op != opHello {
		_ = s.writeResponse(req.Op, &response{ID: req.ID, Err: errNoHello})
		return
	}
	if req.Version != ProtocolVersion {
		_ = s.writeResponse(opHello, &response{ID: req.ID, Version: ProtocolVersion, Err: fmt.Sprintf(
			"wire: protocol version mismatch: server speaks v%d, client spoke v%d",
			ProtocolVersion, req.Version)})
		return
	}
	if err := s.writeResponse(opHello, &response{ID: req.ID, Version: ProtocolVersion}); err != nil {
		return
	}

	// One semaphore bounds the connection: the decode loop takes an
	// execution slot before it spawns an op and the op frees it once its
	// response is written. So at most workersPerConn ops run at once, and a
	// peer that streams requests without reading responses stalls the
	// decode loop instead of growing server goroutines.
	sem := make(chan struct{}, c.workersPerConn())
	var wg sync.WaitGroup
	for {
		req, err := s.readRequest()
		if err != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			resp := c.dispatch(req)
			resp.ID = req.ID
			if err := s.writeResponse(req.Op, &resp); err != nil {
				// The response stream is broken; closing the conn unblocks
				// the decode loop so the whole handler winds down.
				conn.Close()
			}
		}()
	}
	wg.Wait()
}

// authorizeWrite refuses a write into a claimed namespace whose caller
// does not hold the owner token. Unclaimed namespaces accept tokenless
// writes (the open single-tenant mode earlier versions shipped with); the
// first tokened write closes the door behind its owner.
func authorizeWrite(st *storage.Store, name string, tok []byte) *response {
	if st.OwnerHash() == nil {
		return nil
	}
	if len(tok) == 0 {
		return &response{Err: fmt.Sprintf(
			"wire: write to store %q refused: namespace is owner-claimed and the request carries no owner token", name)}
	}
	if !tokenMatches(st.OwnerHash(), tok) {
		return &response{Err: fmt.Sprintf("wire: write to store %q refused: owner token mismatch", name)}
	}
	return nil
}

func (c *Cloud) dispatch(req *request) response {
	// The cloud-level read lock is held across the whole op so snapshot
	// Save/Restore (which replace the entire store set) stay exclusive
	// against every in-flight op; dispatches on different namespaces
	// share it and proceed in parallel.
	c.mu.RLock()
	defer c.mu.RUnlock()

	// Store-less ops answer before the namespace is resolved: a Ping (or
	// a duplicate hello) must not materialise a phantom store in
	// StoreNames/Stats or in the next snapshot.
	switch req.Op {
	case opPing:
		return response{}
	case opHello:
		// A duplicate hello after the handshake is harmless: echo the
		// version again.
		return response{Version: ProtocolVersion}
	case opAdminList, opAdminStats, opAdminDrop:
		// Control plane: resolves (never creates) its namespace itself.
		return c.dispatchAdmin(req)
	case opRingDirectory:
		return c.dispatchRingDirectory(req)
	case opRingRepair:
		return c.dispatchRingRepair(req)
	case opStoreInfo, opStoreSnapshot, opStoreRestore, opRepairAppend:
		// Ring plane: resolves (never creates) its namespace itself.
		return c.dispatchRing(req)
	}

	name := storeName(req.Store)
	st := c.stores.GetOrCreate(name)
	c.opCounter(name).Add(1)

	// Write admission. A write presenting an owner token claims the
	// namespace on first write (later claims are no-ops; the cloud keeps
	// only the hash) — and once a namespace is claimed, every write must
	// present the owner's token. The claim is an isolation boundary, not
	// just a control-plane credential: tenant B must not be able to
	// append rows into, or replace the plain partition of, tenant A's
	// claimed store.
	switch req.Op {
	case opPlainLoad, opPlainInsert, opEncAddBatch:
		if len(req.AdminToken) != 0 && st.OwnerHash() == nil {
			st.ClaimOwner(hashToken(req.AdminToken))
		}
		if refuse := authorizeWrite(st, name, req.AdminToken); refuse != nil {
			return *refuse
		}
	}

	if req.Op == opPlainLoad {
		rel := relation.New(req.Schema)
		for _, t := range req.Tuples {
			if err := rel.Append(t); err != nil {
				return response{Err: err.Error()}
			}
		}
		ps, err := storage.NewPlainStore(rel, req.Attr)
		if err != nil {
			return response{Err: err.Error()}
		}
		// Exclusive against in-flight ops on this namespace only.
		st.SetPlain(ps)
		return response{N: rel.Len()}
	}

	// The store's read lock is held across the whole op — not just the
	// pointer read — so an op can never land in a relation that a
	// concurrent opPlainLoad on the same namespace has already swapped
	// out (the stores themselves synchronise internally, so read ops
	// still run in parallel).
	plain, encStore, release := st.ReadView()
	defer release()

	switch req.Op {
	case opPlainSearch:
		if plain == nil {
			return response{Err: "wire: no relation loaded in store " + name}
		}
		a := plain.SearchSince(req.Values, req.CondEpoch, req.Have)
		if a.NotModified {
			c.condCounter(name).Add(1)
		}
		return response{Tuples: a.Tuples, VerEpoch: a.Epoch, VerN: uint64(a.Len), Delta: a.NotModified}
	case opPlainInsert:
		if plain == nil {
			return response{Err: "wire: no relation loaded in store " + name}
		}
		// Length CAS (protocol v6): apply only if the relation is still
		// where the writer last saw it, so an insert racing a repair
		// restore cannot re-append a tuple the restored state already
		// contains.
		if n, err := plain.InsertIfLen(req.Tuple, req.Have); err != nil {
			if errors.Is(err, storage.ErrLenMismatch) {
				return response{Err: fmt.Sprintf(
					"%s: store %q holds %d tuples, writer expected %d (nothing applied)",
					staleWriteMark, name, n, req.Have)}
			}
			return response{Err: err.Error()}
		}
		return response{}
	case opEncAddBatch:
		// Validate before applying anything: the client's flush-retry
		// logic relies on a rejected batch being all-or-nothing (a
		// partially-applied batch would shift the addresses it already
		// handed out).
		for i, u := range req.Batch {
			if len(u.TupleCT) == 0 {
				return response{Err: fmt.Sprintf("wire: enc add batch: row %d has empty tuple ciphertext", i)}
			}
		}
		// Length CAS (protocol v6): the batch's client-side addresses were
		// assigned at base Have, so it lands atomically only if the store is
		// still there — a flush racing an anti-entropy tail copy of the same
		// rows is refused instead of doubling them.
		rows := make([]storage.EncRow, len(req.Batch))
		for i, u := range req.Batch {
			rows[i] = storage.EncRow{TupleCT: u.TupleCT, AttrCT: u.AttrCT, Token: u.Token}
		}
		n, err := encStore.AppendIfLen(rows, req.Have)
		if err != nil {
			return response{Err: fmt.Sprintf(
				"%s: store %q holds %d encrypted rows, writer expected %d (nothing applied)",
				staleWriteMark, name, n, req.Have)}
		}
		return response{Addr: n - 1, N: len(req.Batch)}
	case opEncFetchBatch:
		batches, err := encStore.FetchBatch(req.AddrBatches)
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{RowBatches: batches}
	case opEncLookupToken:
		return response{Addrs: encStore.LookupToken(req.Token)}
	case opEncVersion:
		v, _ := encStore.EncVersion()
		return response{VerEpoch: v.Epoch, VerN: v.N}
	case opEncAttrColumnIf, opEncRowsIf:
		// Both pulls serve the snapshot's rows as they are; a column pull
		// encodes only their addresses and attribute cells.
		rows, cur, delta, _ := encStore.RowsSince(
			storage.EncVersion{Epoch: req.CondEpoch}, req.Have)
		if delta {
			c.condCounter(name).Add(1)
		}
		return response{Rows: rows, VerEpoch: cur.Epoch, VerN: cur.N, Delta: delta,
			attrOnly: req.Op == opEncAttrColumnIf}
	default:
		return response{Err: "wire: unknown op"}
	}
}
