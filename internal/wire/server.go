package wire

import (
	"bufio"
	"crypto/hmac"
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
// from one connection are themselves dispatched concurrently through
// two-level admission: a bounded per-connection worker pool plus an
// optional per-namespace bound (SetStoreWorkers) that isolates tenants
// sharing one connection from each other's CPU bursts (responses are
// serialised by the connection's frameWriter, so frames never
// interleave). Locking is layered: the stores synchronise internally;
// each storage.Store's lock makes opPlainLoad exclusive against in-flight
// ops on the same namespace only; and the cloud-level lock is taken
// exclusively just by snapshot Save/Restore, which must quiesce every
// namespace at once.
//
// Connections must open with an opHello carrying ProtocolVersion; any
// other first frame is answered with an explicit version-mismatch error
// and the connection is closed, so a client that skips the handshake
// fails loudly instead of having its ops misrouted into the default store.
type Cloud struct {
	mu     sync.RWMutex // exclusive for Save/Restore, shared by dispatch
	stores *storage.StoreSet

	// connWorkers bounds concurrent dispatch per connection; 0 selects
	// GOMAXPROCS.
	connWorkers int

	// storeWorkers bounds concurrent dispatch per namespace across all
	// connections; 0 disables the per-store level. Together with the
	// per-connection bound this makes admission two-level: the connection
	// bound caps what one transport can execute at once, the store bound
	// caps what one tenant can, so tenants multiplexed onto a shared
	// connection (e.g. behind a proxy) cannot starve each other.
	// Individual namespaces can override the server-wide default at
	// runtime through SetStoreWorkersFor (the opAdminSetWorkers control
	// op); workerOverrides holds those per-namespace caps and
	// overrideCount mirrors its size so admitStore's fast path stays
	// lock-free when no bound exists anywhere.
	storeWorkers    int
	storeSemMu      sync.Mutex
	storeSems       map[string]*storeSem
	workerOverrides map[string]int
	overrideCount   atomic.Int64

	// statsMu guards the per-store op counters (read-mostly: the fast
	// path is a shared-lock map hit).
	statsMu    sync.RWMutex
	opCounts   map[string]*atomic.Uint64
	condCounts map[string]*atomic.Uint64

	// ringDir, when set (before Serve), makes this server a qbring
	// coordinator: it serves the placement directory through
	// opRingDirectory. The wire layer treats the directory as an opaque
	// blob; the provider synchronises internally.
	ringDir func(known uint64) (blob []byte, version uint64, changed bool)
	// ringRepair, when set (before Serve, coordinator only), serves
	// opRingRepair: a targeted anti-entropy round for one namespace,
	// requested by a writer trying to readmit a quarantined replica.
	ringRepair func(store string) error
	// ringTokenHash is the hash of the cluster's ring token (nil disables
	// the ring-guarded repair ops); set before Serve.
	ringTokenHash []byte

	// testHookDispatch, when set (tests only, before Serve), runs after an
	// op has passed both admission levels and immediately before dispatch.
	testHookDispatch func(o op, store string)
}

// NewCloud returns an empty cloud.
func NewCloud() *Cloud {
	return &Cloud{
		stores:          storage.NewStoreSet(),
		storeSems:       make(map[string]*storeSem),
		workerOverrides: make(map[string]int),
		opCounts:        make(map[string]*atomic.Uint64),
		condCounts:      make(map[string]*atomic.Uint64),
	}
}

// storeSem is one namespace's admission semaphore. Unlike a buffered
// channel its capacity is resizable at runtime (opAdminSetWorkers), so an
// operator can widen or narrow a tenant's bound while ops are queued:
// raising the cap wakes queued waiters immediately, lowering it lets the
// excess in-flight ops drain without ever admitting new ones above the
// new cap. cap == 0 means unbounded.
type storeSem struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
}

func newStoreSem(capacity int) *storeSem {
	s := &storeSem{cap: capacity}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire blocks until the semaphore has a free slot (or is unbounded).
func (s *storeSem) acquire() {
	s.mu.Lock()
	for s.cap > 0 && s.used >= s.cap {
		s.cond.Wait()
	}
	s.used++
	s.mu.Unlock()
}

// release frees a slot taken by acquire.
func (s *storeSem) release() {
	s.mu.Lock()
	s.used--
	s.cond.Signal()
	s.mu.Unlock()
}

// setCap resizes the semaphore; every waiter rechecks against the new cap.
func (s *storeSem) setCap(n int) {
	s.mu.Lock()
	s.cap = n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SetConnWorkers bounds how many ops from a single connection may execute
// concurrently (<= 0 selects GOMAXPROCS). It must be called before Serve.
func (c *Cloud) SetConnWorkers(n int) { c.connWorkers = n }

// SetStoreWorkers bounds how many ops may execute concurrently per
// namespace, across all connections (<= 0 disables the bound). It sets
// the server-wide default and must be called before Serve; per-namespace
// runtime adjustments go through SetStoreWorkersFor.
func (c *Cloud) SetStoreWorkers(n int) {
	if n < 0 {
		n = 0
	}
	c.storeWorkers = n
}

// SetStoreWorkersFor overrides the admission bound for one namespace at
// runtime: n > 0 bounds it to n concurrent ops, n == 0 lifts the bound
// for this namespace, n < 0 clears the override back to the server-wide
// default. Queued ops see the new cap immediately. It returns the
// namespace's effective cap.
func (c *Cloud) SetStoreWorkersFor(name string, n int) int {
	name = storeName(name)
	c.storeSemMu.Lock()
	defer c.storeSemMu.Unlock()
	if n < 0 {
		if _, ok := c.workerOverrides[name]; ok {
			delete(c.workerOverrides, name)
			c.overrideCount.Add(-1)
		}
	} else {
		if _, ok := c.workerOverrides[name]; !ok {
			c.overrideCount.Add(1)
		}
		c.workerOverrides[name] = n
	}
	eff := c.effectiveWorkersLocked(name)
	if sem, ok := c.storeSems[name]; ok {
		sem.setCap(eff)
	}
	return eff
}

// StoreWorkersFor reports the namespace's effective admission cap (0 =
// unbounded).
func (c *Cloud) StoreWorkersFor(name string) int {
	c.storeSemMu.Lock()
	defer c.storeSemMu.Unlock()
	return c.effectiveWorkersLocked(storeName(name))
}

// workerOverride returns the namespace's admission override, if one is
// set (for persistence).
func (c *Cloud) workerOverride(name string) (int, bool) {
	c.storeSemMu.Lock()
	defer c.storeSemMu.Unlock()
	w, ok := c.workerOverrides[name]
	return w, ok
}

// effectiveWorkersLocked resolves override-or-default; caller holds
// storeSemMu.
func (c *Cloud) effectiveWorkersLocked(name string) int {
	if o, ok := c.workerOverrides[name]; ok {
		return o
	}
	return c.storeWorkers
}

// storeSem returns the named namespace's admission semaphore, creating it
// on first use. Semaphores survive a drop — the bound is a property of
// the name, and keeping the semaphore avoids a drop/create race handing
// out two semaphores for one namespace.
func (c *Cloud) storeSem(name string) *storeSem {
	c.storeSemMu.Lock()
	defer c.storeSemMu.Unlock()
	sem, ok := c.storeSems[name]
	if !ok {
		sem = newStoreSem(c.effectiveWorkersLocked(name))
		c.storeSems[name] = sem
	}
	return sem
}

// admitStore takes the per-namespace admission slot for a data-plane op
// and returns its release, or nil when no slot is needed: no bound exists
// anywhere (neither a default nor any per-namespace override), the op is
// store-less (ping, hello), or it is a control-plane op — admin ops
// bypass data-plane admission so an owner can always inspect, drop or
// re-bound a namespace that is saturated, and drop/compact do their own
// quiescing through the per-store lock.
//
// Caps are eventually enforced, not retroactively: the unbounded fast
// path admits without touching any semaphore, so ops already in flight
// when the first override lands (or admitted under a higher previous cap)
// hold no slot and are not counted against the new bound. A freshly
// lowered cap can therefore be transiently exceeded by that pre-existing
// load; every op admitted after the cap is installed honours it. This is
// the price of keeping the no-bound configuration completely lock-free on
// the data plane.
func (c *Cloud) admitStore(req *request) func() {
	if c.storeWorkers <= 0 && c.overrideCount.Load() == 0 {
		return nil
	}
	switch req.Op {
	case opPing, opHello, opAdminList, opAdminStats, opAdminDrop, opAdminCompact, opAdminSetWorkers,
		opRingDirectory, opRingRepair, opStoreInfo:
		// The two read-only ring ops bypass like admin ops: a coordinator's
		// divergence probe (and qbadmin ring) must see a namespace that is
		// saturated with data-plane work.
		return nil
	}
	sem := c.storeSem(storeName(req.Store))
	sem.acquire()
	return sem.release
}

func (c *Cloud) workersPerConn() int {
	if c.connWorkers > 0 {
		return c.connWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// connInflightCap bounds decoded-but-unfinished requests per connection —
// the memory backstop against a client that streams requests without
// awaiting responses. It is deliberately far above the execution bound so
// that ops queueing on a saturated namespace don't block the decode loop
// (which would reintroduce cross-tenant starvation) under any cooperative
// workload.
func (c *Cloud) connInflightCap() int {
	if n := 16 * c.workersPerConn(); n > 256 {
		return n
	}
	return 256
}

// StoreNames returns the namespaces currently hosted, sorted.
func (c *Cloud) StoreNames() []string { return c.stores.Names() }

// StoreStats is the per-namespace accounting a multi-tenant operator
// watches: ops dispatched, clear-text tuples and encrypted rows held,
// conditional pulls served as a delta (the client cache was valid and the
// full column transfer was skipped), and the effective admission cap.
type StoreStats struct {
	Ops         uint64
	PlainTuples int
	EncRows     int
	CondHits    uint64
	Workers     int
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
		Workers:  c.StoreWorkersFor(name),
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
// connection; the client reassembles by ID.
func (s *serverStream) writeChunkedRows(resp *response) error {
	rows := resp.Rows
	for {
		n, size := 0, 0
		for n < len(rows) && size < chunkTarget {
			r := &rows[n]
			size += 16 + len(r.TupleCT) + len(r.AttrCT) + len(r.Token)
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

	sem := make(chan struct{}, c.workersPerConn())
	// inflight is the decode loop's flood bound: it caps live request
	// goroutines per connection well above the execution bounds, so
	// admission queueing never stalls decoding but a request stream that
	// ignores responses cannot grow server memory without limit.
	inflight := make(chan struct{}, c.connInflightCap())
	var wg sync.WaitGroup
	for {
		req, err := s.readRequest()
		if err != nil {
			break
		}
		inflight <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			// Two-level admission, namespace level first: an op queueing on
			// its own saturated store must not hold per-connection capacity,
			// or one tenant's burst would starve every tenant sharing the
			// connection. Only once its store admits it does the op compete
			// for a per-connection execution slot. The decode loop blocks on
			// the flood bound only, not on admission, so queued-but-waiting
			// requests are bounded without reintroducing cross-tenant
			// head-of-line blocking; executing ops stay bounded by both
			// semaphores.
			releaseStore := c.admitStore(req)
			sem <- struct{}{}
			if h := c.testHookDispatch; h != nil {
				h(req.Op, storeName(req.Store))
			}
			resp := c.dispatch(req)
			<-sem
			if releaseStore != nil {
				releaseStore()
			}
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
// first tokened write closes the door behind its owner. The comparison is
// constant-time, like the admin path's.
func authorizeWrite(st *storage.Store, name string, tok []byte) *response {
	stored := st.OwnerHash()
	if stored == nil {
		return nil
	}
	if len(tok) == 0 {
		return &response{Err: fmt.Sprintf(
			"wire: write to store %q refused: namespace is owner-claimed and the request carries no owner token", name)}
	}
	if !hmac.Equal(stored, hashToken(tok)) {
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
	case opAdminList, opAdminStats, opAdminDrop, opAdminCompact, opAdminSetWorkers:
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
		if len(req.AdminToken) != 0 {
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
		return response{Tuples: plain.Search(req.Values)}
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
	case opEncLen:
		return response{N: encStore.Len()}
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
	case opEncAttrColumnIf:
		rows, cur, delta, _ := encStore.AttrColumnSince(
			storage.EncVersion{Epoch: req.CondEpoch, N: req.CondN}, req.Have)
		if delta {
			c.condCounter(name).Add(1)
		}
		return response{Rows: rows, VerEpoch: cur.Epoch, VerN: cur.N, Delta: delta}
	case opEncRowsIf:
		rows, cur, delta, _ := encStore.RowsSince(
			storage.EncVersion{Epoch: req.CondEpoch, N: req.CondN}, req.Have)
		if delta {
			c.condCounter(name).Add(1)
		}
		return response{Rows: rows, VerEpoch: cur.Epoch, VerN: cur.N, Delta: delta}
	default:
		return response{Err: "wire: unknown op"}
	}
}
