package ring

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ReplicatedStore is one namespace's replicated view: a wire.Backend that
// fans writes out to every in-sync replica and serves reads from a sticky
// preferred replica with instant failover.
//
// Write consistency is CP by construction. The owner's address arithmetic
// (client-side Add addresses, token → address postings) must be identical
// on every replica that accepts writes, so a replica that misses or
// refuses a write is quarantined out of the write set immediately, as is
// one whose write connection died (the node may have restarted from older
// state). A quarantined replica keeps serving reads of its (stale)
// prefix, but it takes no further writes until anti-entropy repair has
// restored byte-for-byte row parity and the readmission probe observes
// the lengths of an in-sync peer — or, with none left, the lengths this
// view's writes left (want). If NO replica can take a write, the write
// fails rather than diverging the survivors: refusing is recoverable,
// forked address spaces are not.
//
// Failed reads on one replica fall over to the next without surfacing to
// the owner: replicas are read through their views' error-returning
// methods (which record nothing), and the ReplicatedStore keeps its OWN
// logical record counting only ops that failed on EVERY replica, because
// a masked per-replica failure is degradation the failover already
// absorbed, not a lost answer.
type ReplicatedStore struct {
	r        *Router
	name     string
	replicas []*nodeConn

	// writeMu serialises write fan-out, quarantine decisions and
	// readmission probing; inSync, views and want are only touched under it.
	writeMu sync.Mutex
	inSync  []bool
	// views holds each replica's write view, kept while it stays in the
	// write set: the rows Add buffered and the lengths it synced live there.
	views []*wire.StoreClient
	// want is the namespace as this view's writes left it (EncRows counts
	// handed-out addresses), probed before the first write (wantOK): the
	// readmission reference once the write set is empty.
	want   wire.StoreInfo
	wantOK bool

	prefMu sync.Mutex
	pref   int // sticky preferred read replica

	tokMu    sync.Mutex
	adminTok []byte

	logMu    sync.Mutex
	logical  error
	logicalN uint64
}

var _ wire.Backend = (*ReplicatedStore)(nil)

func newReplicatedStore(r *Router, name string, replicas []*nodeConn) *ReplicatedStore {
	inSync := make([]bool, len(replicas))
	for i := range inSync {
		inSync[i] = true
	}
	return &ReplicatedStore{r: r, name: name, replicas: replicas, inSync: inSync, views: make([]*wire.StoreClient, len(replicas))}
}

// StoreName returns the namespace this view addresses.
func (s *ReplicatedStore) StoreName() string { return s.name }

// Placement returns the replica nodes in ring order (primary first).
func (s *ReplicatedStore) Placement() []Node {
	out := make([]Node, len(s.replicas))
	for i, nc := range s.replicas {
		out[i] = nc.node
	}
	return out
}

// InSync reports the current write set (indexes parallel Placement).
func (s *ReplicatedStore) InSync() []bool {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	out := make([]bool, len(s.inSync))
	copy(out, s.inSync)
	return out
}

// view returns a replica's view of the namespace with the owner token
// stamped, or why its node cannot be reached.
func (s *ReplicatedStore) view(nc *nodeConn) (*wire.StoreClient, error) {
	c, err := nc.client()
	if err != nil {
		return nil, err
	}
	v := c.WithStore(s.name)
	s.tokMu.Lock()
	tok := s.adminTok
	s.tokMu.Unlock()
	if tok != nil {
		v.SetAdminToken(tok)
	}
	return v, nil
}

// call runs f on a replica's view. A failure that killed the node's
// connection starts the node's cooldown at once, so later ops fail over
// without touching it; a logical refusal leaves the node routable.
func (s *ReplicatedStore) call(nc *nodeConn, f func(*wire.StoreClient) error) error {
	v, err := s.view(nc)
	if err != nil {
		return err
	}
	if err = f(v); err != nil {
		nc.down() // drops the connection if the failure killed it
	}
	return err
}

// noteLogical records an op that failed on every replica; the latest
// failure overwrites the record.
func (s *ReplicatedStore) noteLogical(err error) {
	s.logMu.Lock()
	s.logical = err
	s.logicalN++
	s.logMu.Unlock()
}

func (s *ReplicatedStore) setPref(i int) {
	s.prefMu.Lock()
	s.pref = i
	s.prefMu.Unlock()
}

// readOrder is the failover probe order: the replicas not cooling down,
// starting at the sticky preference, with those whose dial is still in
// flight last.
func (s *ReplicatedStore) readOrder() []int {
	s.prefMu.Lock()
	pref := s.pref
	s.prefMu.Unlock()
	var order, dialing []int
	for i := range s.replicas {
		idx := (pref + i) % len(s.replicas)
		if up, wait := s.replicas[idx].status(); up && wait {
			dialing = append(dialing, idx)
		} else if up {
			order = append(order, idx)
		}
	}
	return append(order, dialing...)
}

// readFrom serves one read with failover: replicas are tried in
// readOrder through their views' error-returning methods, so the witness
// of a failed probe is that probe's own error — never a counter some
// other namespace on the same node could be bumping — and the first
// replica to answer becomes the sticky preference.
func readFrom[T any](s *ReplicatedStore, f func(*wire.StoreClient) (T, error)) (T, error) {
	var out T
	var lastErr error
	for _, idx := range s.readOrder() {
		err := s.call(s.replicas[idx], func(v *wire.StoreClient) (err error) {
			out, err = f(v)
			return err
		})
		if err == nil {
			s.setPref(idx)
			return out, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("ring: store %q: every replica is down", s.name)
	}
	var zero T
	return zero, lastErr
}

// readNoted is readFrom for the void-signature reads: an op that failed
// on every replica lands in the view's own logical record.
func readNoted[T any](s *ReplicatedStore, f func(*wire.StoreClient) (T, error)) T {
	out, err := readFrom(s, f)
	if err != nil {
		s.noteLogical(err)
	}
	return out
}

// fanOut runs one write against every in-sync replica (writeMu held).
// A replica whose write connection died is quarantined first (its node
// may have restarted from older state); when that empties the write set,
// readmit may restore it against want. Replicas that miss the write are
// quarantined only if at least one replica acked: a mistake every node
// refuses identically must not strand the namespace.
func (s *ReplicatedStore) fanOut(f func(*wire.StoreClient) error) error {
	for i, v := range s.views {
		if v != nil && v.Err() != nil {
			s.inSync[i] = false
			s.replicas[i].down() // the node's cooldown starts now
		}
	}
	if !slices.Contains(s.inSync, true) {
		s.readmit()
	}
	acks := 0
	var quarantine []int
	var lastErr error
	for i := range s.replicas {
		if !s.inSync[i] {
			continue
		}
		if err := s.write(i, f); err != nil {
			quarantine = append(quarantine, i)
			lastErr = err
			continue
		}
		acks++
	}
	if acks == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("ring: store %q: no in-sync replica", s.name)
		}
		return lastErr
	}
	for _, i := range quarantine {
		s.inSync[i] = false
	}
	return nil
}

// write runs f on replica i's write view, acquiring it on the replica's
// first write. No view is kept before want is learned, so every write and
// every quarantine comes after it.
func (s *ReplicatedStore) write(i int, f func(*wire.StoreClient) error) error {
	v := s.views[i]
	var err error
	if v == nil {
		if v, err = s.view(s.replicas[i]); err == nil && !s.wantOK {
			s.want, err = v.Info()
			s.wantOK = err == nil
		}
	}
	if err == nil {
		s.views[i] = v
		err = f(v)
	}
	if err != nil {
		s.replicas[i].down() // drops the connection if the failure killed it
	}
	return err
}

// readmit restores quarantined replicas to the write set once repair has
// caught them up (writeMu held): after a successful flush or insert, and
// when the write set is empty. A replica rejoins when its lengths match an
// in-sync peer's or, with none left, want — so none rejoins below the
// addresses Add handed out, and rows lost with every write connection
// make each later write fail instead of reusing their addresses.
//
// The probe first resyncs the view's cached lengths (ResyncLen), which
// repair made stale; a view still holding retained uploads refuses and
// stays quarantined until its connection dies. A replica still short gets
// one targeted coordinator repair round (opRingRepair) and a re-probe:
// this view's writes are frozen under writeMu meanwhile, so on a
// single-writer namespace it rejoins within the same write call. A failed
// request leaves the replica to the background sweep.
func (s *ReplicatedStore) readmit() {
	ref := slices.Index(s.inSync, true)
	refInfo, refOK := s.want, ref < 0
	repairAsked := false
	for i, nc := range s.replicas {
		if up, _ := nc.status(); s.inSync[i] || !up {
			continue
		}
		if !refOK {
			var err error
			if refInfo, err = s.views[ref].Info(); err != nil {
				return
			}
			refOK = true
		}
		for attempt := 0; ; attempt++ {
			var info wire.StoreInfo
			var fresh *wire.StoreClient
			err := s.call(nc, func(v *wire.StoreClient) (err error) {
				fresh = v
				if err = v.ResyncLen(); err == nil {
					info, err = v.Info()
				}
				return err
			})
			if err != nil {
				break
			}
			// Parity must hold for BOTH partitions: an encrypted-length match
			// alone would readmit a replica whose clear-text tuples still lag
			// the wholesale plain repair, and the next insert would land at a
			// different position there than on its peers.
			if info.EncRows == refInfo.EncRows && info.PlainTuples == refInfo.PlainTuples {
				s.inSync[i], s.views[i] = true, fresh
				break
			}
			if attempt > 0 || repairAsked {
				break
			}
			repairAsked = true
			if s.r.RequestRepair(s.name) != nil {
				break
			}
			// Other owners of the namespace may have written while the
			// repair ran; refresh a peer reference before the re-probe.
			if ref >= 0 {
				if info, err := s.views[ref].Info(); err == nil {
					refInfo = info
				}
			}
		}
	}
}

// --- lifecycle and errors ------------------------------------------------

// Ping succeeds when any replica answers.
func (s *ReplicatedStore) Ping() error {
	_, err := readFrom(s, func(v *wire.StoreClient) (struct{}, error) { return struct{}{}, v.Ping() })
	return err
}

// Err is the view's transport health: nil while any replica's node is
// reachable or may be redialed; the reason a node went down once every
// replica's is cooling down. A closed router is not a failure.
func (s *ReplicatedStore) Err() error {
	var firstErr error
	for _, nc := range s.replicas {
		err := nc.down()
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// LogicalErr returns the most recent error of the view's own per-op
// record: ops that failed on EVERY replica. Per-replica failures masked by
// failover do not count.
func (s *ReplicatedStore) LogicalErr() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logical
}

// LogicalErrCount counts ops that failed on every replica.
func (s *ReplicatedStore) LogicalErrCount() uint64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.logicalN
}

// Close closes the SHARED router: every namespace view dies with it.
func (s *ReplicatedStore) Close() error { return s.r.Close() }

// SetAdminToken attaches the namespace's owner token; it is stamped onto
// every replica view at acquisition so claims and write admission behave
// identically on each replica.
func (s *ReplicatedStore) SetAdminToken(tok []byte) {
	s.tokMu.Lock()
	s.adminTok = tok
	s.tokMu.Unlock()
}

// --- writes (fan-out) ----------------------------------------------------

// Load ships the clear-text partition to every in-sync replica.
func (s *ReplicatedStore) Load(rel *relation.Relation, attr string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.fanOut(func(v *wire.StoreClient) error { return v.Load(rel, attr) }); err != nil {
		return err
	}
	s.want.PlainTuples = rel.Len()
	return nil
}

// Insert applies a clear-text insert on every in-sync replica, then —
// like Flush — uses the settled moment to probe quarantined replicas for
// readmission, so a plain-heavy workload does not leave a repaired
// replica quarantined until the next encrypted flush happens by.
func (s *ReplicatedStore) Insert(t relation.Tuple) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.fanOut(func(v *wire.StoreClient) error { return v.Insert(t) }); err != nil {
		return err
	}
	s.want.PlainTuples++
	s.readmit()
	return nil
}

// Add buffers one encrypted row on every in-sync replica and returns its
// address. The replicas' client-side address arithmetic must agree; a
// replica handing out a different address has diverged and is quarantined
// on the spot.
func (s *ReplicatedStore) Add(tupleCT, attrCT, token []byte) int {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	addr := -1
	err := s.fanOut(func(v *wire.StoreClient) error {
		switch got := v.Add(tupleCT, attrCT, token); {
		case got < 0:
			return fmt.Errorf("ring: store %q: add failed: %w", s.name, v.LogicalErr())
		case addr == -1:
			addr = got
		case got != addr:
			return fmt.Errorf("ring: store %q: replica handed out address %d, its peers %d", s.name, got, addr)
		}
		return nil
	})
	if err != nil {
		s.noteLogical(err)
		return -1
	}
	s.want.EncRows = addr + 1
	return addr
}

// Flush uploads the pending rows on every in-sync replica, then uses the
// settled moment to probe quarantined replicas for readmission. A failed
// Flush keeps the rows for the next to retry, unless every write
// connection holding them died: then every later write fails (readmit).
func (s *ReplicatedStore) Flush() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.fanOut((*wire.StoreClient).Flush); err != nil {
		return err
	}
	s.readmit()
	return nil
}

// --- reads (failover) ----------------------------------------------------
//
// Every read serves from the preferred replica, failing over on error.

// SearchSince is the conditional bin search with failover; epochs are per
// replica, so a failover resends the bin. A failure is recorded, as Search's.
func (s *ReplicatedStore) SearchSince(values []relation.Value, epoch uint64, have int) (storage.BinAnswer, error) {
	a, err := readFrom(s, func(v *wire.StoreClient) (storage.BinAnswer, error) { return v.SearchSince(values, epoch, have) })
	if err != nil {
		s.noteLogical(err)
	}
	return a, err
}

// Search implements cloud.PlainBackend from the zero version.
func (s *ReplicatedStore) Search(values []relation.Value) []relation.Tuple {
	a, _ := s.SearchSince(values, 0, 0)
	return a.Tuples
}

// SearchRange is the wire.Backend pin: it records wire.ErrNoRangeSearch
// and answers nothing, on no replica.
func (s *ReplicatedStore) SearchRange(_, _ relation.Value) []relation.Tuple {
	s.noteLogical(wire.ErrNoRangeSearch)
	return nil
}

// Len implements technique.EncStore.
func (s *ReplicatedStore) Len() int {
	return readNoted(s, (*wire.StoreClient).LenErr)
}

// AttrColumn implements technique.EncStore as a zero-version pull.
func (s *ReplicatedStore) AttrColumn() []storage.EncRow {
	return readNoted(s, (*wire.StoreClient).AttrColumnErr)
}

// Fetch implements technique.EncStore as a fetch batch of one list.
func (s *ReplicatedStore) Fetch(addrs []int) ([]storage.EncRow, error) {
	return readFrom(s, func(v *wire.StoreClient) ([]storage.EncRow, error) { return v.Fetch(addrs) })
}

// FetchBatch implements technique.EncStore.
func (s *ReplicatedStore) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	return readFrom(s, func(v *wire.StoreClient) ([][]storage.EncRow, error) { return v.FetchBatch(addrBatches) })
}

// LookupToken implements technique.EncStore.
func (s *ReplicatedStore) LookupToken(tok []byte) []int {
	return readNoted(s, func(v *wire.StoreClient) ([]int, error) { return v.LookupTokenErr(tok) })
}

// Rows implements technique.EncStore as a zero-version pull.
func (s *ReplicatedStore) Rows() []storage.EncRow {
	return readNoted(s, (*wire.StoreClient).RowsErr)
}

// EncVersion implements technique.EncStore. Version epochs are
// per store INSTANCE, so a failover necessarily changes the observed
// epoch — exactly the signal the owner-side cache needs to drop state
// learned from the previous replica.
func (s *ReplicatedStore) EncVersion() (storage.EncVersion, error) {
	return readFrom(s, (*wire.StoreClient).EncVersion)
}

// pull is the answer of a conditional row pull.
type pull struct {
	rows  []storage.EncRow
	cur   storage.EncVersion
	delta bool
}

// since serves a conditional row pull from the preferred replica.
func (s *ReplicatedStore) since(f func(*wire.StoreClient) ([]storage.EncRow, storage.EncVersion, bool, error)) ([]storage.EncRow, storage.EncVersion, bool, error) {
	p, err := readFrom(s, func(v *wire.StoreClient) (p pull, err error) {
		p.rows, p.cur, p.delta, err = f(v)
		return p, err
	})
	return p.rows, p.cur, p.delta, err
}

// AttrColumnSince implements technique.EncStore. Read stickiness
// keeps the conditional-fetch protocol effective: the epoch only changes
// when a failover actually happens.
func (s *ReplicatedStore) AttrColumnSince(ver storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	return s.since(func(v *wire.StoreClient) ([]storage.EncRow, storage.EncVersion, bool, error) {
		return v.AttrColumnSince(ver, have)
	})
}

// RowsSince implements technique.EncStore.
func (s *ReplicatedStore) RowsSince(ver storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	return s.since(func(v *wire.StoreClient) ([]storage.EncRow, storage.EncVersion, bool, error) {
		return v.RowsSince(ver, have)
	})
}
