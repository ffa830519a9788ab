package ring

import (
	"fmt"
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
// refuses a write is quarantined out of the write set immediately — it
// keeps serving reads of its (stale) prefix, but it takes no further
// writes until anti-entropy repair has restored byte-for-byte row parity
// and the readmission probe observes equal lengths. If NO replica can
// take a write, the write fails rather than diverging the survivors:
// refusing is recoverable, forked address spaces are not.
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
	// readmission probing; inSync is only touched under it.
	writeMu sync.Mutex
	inSync  []bool

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
	return &ReplicatedStore{r: r, name: name, replicas: replicas, inSync: inSync}
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
// stamped.
func (s *ReplicatedStore) view(nc *nodeConn) *wire.StoreClient {
	v := nc.transport().WithStore(s.name)
	s.tokMu.Lock()
	tok := s.adminTok
	s.tokMu.Unlock()
	if tok != nil {
		v.SetAdminToken(tok)
	}
	return v
}

// noteLogical records an op that failed on every replica.
func (s *ReplicatedStore) noteLogical(err error) {
	s.logMu.Lock()
	if s.logical == nil {
		s.logical = err
	}
	s.logicalN++
	s.logMu.Unlock()
}

func (s *ReplicatedStore) setPref(i int) {
	s.prefMu.Lock()
	s.pref = i
	s.prefMu.Unlock()
}

// readOrder is the failover probe order: available replicas starting at
// the sticky preference, or every replica forced when all are cooling
// down (a wrong guess there costs a fast error, not a wrong answer).
func (s *ReplicatedStore) readOrder() []int {
	s.prefMu.Lock()
	pref := s.pref
	s.prefMu.Unlock()
	n := len(s.replicas)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if idx := (pref + i) % n; s.replicas[idx].available() {
			order = append(order, idx)
		}
	}
	if len(order) == 0 {
		for i := 0; i < n; i++ {
			order = append(order, (pref+i)%n)
		}
	}
	return order
}

// afterFailure books a failed probe: the node cools down only when its
// transport is actually gone — a logical refusal (unknown relation, bad
// range) is deterministic and must not eject the node from read routing.
func (s *ReplicatedStore) afterFailure(nc *nodeConn) {
	if nc.transportDead() {
		nc.markDown()
	}
}

// readFrom serves one read with failover: replicas are tried in
// readOrder through their views' error-returning methods, so the witness
// of a failed probe is that probe's own error — never a counter some
// other namespace on the same node could be bumping — and the first
// replica to answer becomes the sticky preference.
func readFrom[T any](s *ReplicatedStore, f func(*wire.StoreClient) (T, error)) (T, error) {
	var lastErr error
	for _, idx := range s.readOrder() {
		nc := s.replicas[idx]
		out, err := f(s.view(nc))
		if err == nil {
			s.setPref(idx)
			return out, nil
		}
		lastErr = err
		s.afterFailure(nc)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("ring: store %q: no replica answered", s.name)
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
// Replicas that miss the write are quarantined — but only if at least one
// replica acked; with zero acks the write is refused outright and no
// quarantine sticks, so a total outage (or a client-side mistake every
// node refuses identically) cannot strand the namespace with an empty
// write set.
func (s *ReplicatedStore) fanOut(f func(*wire.StoreClient) error) error {
	acks := 0
	var quarantine []int
	var lastErr error
	for i, nc := range s.replicas {
		if !s.inSync[i] {
			continue
		}
		if !nc.available() {
			quarantine = append(quarantine, i)
			if lastErr == nil {
				lastErr = fmt.Errorf("ring: store %q: replica %s is down", s.name, nc.node.ID)
			}
			continue
		}
		if err := f(s.view(nc)); err != nil {
			quarantine = append(quarantine, i)
			lastErr = err
			s.afterFailure(nc)
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

// readmit probes quarantined replicas for row parity with the in-sync
// set and restores them to the write set when anti-entropy repair has
// caught them up. Called after a successful flush (writeMu held) so the
// in-sync length it compares against is stable.
//
// Before the parity probe the replica's client view is told to re-learn
// the server length (ResyncLen): repair appended rows server-side that
// this view never uploaded, so its cached address base is stale and
// reusing it would hand out colliding addresses. A view still holding
// retained uploads refuses the resync and simply stays quarantined — its
// transport's eventual replacement clears that state.
//
// When the parity probe finds a replica still short, readmit asks the
// coordinator for one targeted repair round (opRingRepair) and re-probes,
// instead of waiting for the background sweep: this view's writes are
// frozen under writeMu while the repair runs, so on a single-writer
// namespace the round deterministically closes the gap and the replica
// rejoins within the same write call. At most one coordinator round is
// requested per readmit, and a failed request (no ring, coordinator
// unreachable) just leaves the replica to the sweep as before.
func (s *ReplicatedStore) readmit() {
	ref := -1
	for i := range s.replicas {
		if s.inSync[i] && s.replicas[i].available() {
			ref = i
			break
		}
	}
	if ref == -1 {
		return
	}
	var refInfo wire.StoreInfo
	refOK := false
	repairAsked := false
	for i, nc := range s.replicas {
		if s.inSync[i] || !nc.available() {
			continue
		}
		v := s.view(nc)
		if !refOK {
			info, err := s.view(s.replicas[ref]).Info()
			if err != nil {
				return
			}
			refInfo = info
			refOK = true
		}
		for attempt := 0; ; attempt++ {
			if err := v.ResyncLen(); err != nil {
				break
			}
			info, err := v.Info()
			if err != nil {
				s.afterFailure(nc)
				break
			}
			// Parity must hold for BOTH partitions: an encrypted-length match
			// alone would readmit a replica whose clear-text tuples still lag
			// the wholesale plain repair, and the next insert would land at a
			// different position there than on its peers.
			if info.EncRows == refInfo.EncRows && info.PlainTuples == refInfo.PlainTuples {
				s.inSync[i] = true
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
			// repair ran; refresh the reference before the re-probe.
			if info, err := s.view(s.replicas[ref]).Info(); err == nil {
				refInfo = info
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

// Err is the view's sticky transport health: nil while any replica's
// transport is live (or not yet dialed — it may well succeed). Only when
// every replica has permanently failed is the view itself failed.
func (s *ReplicatedStore) Err() error {
	var firstErr error
	for _, nc := range s.replicas {
		nc.mu.Lock()
		tr := nc.tr
		nc.mu.Unlock()
		if tr == nil {
			return nil
		}
		err := tr.Err()
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// LogicalErr returns the view's own per-op error record: ops that failed
// on EVERY replica. Per-replica failures masked by failover do not count.
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
	return s.fanOut(func(v *wire.StoreClient) error { return v.Load(rel, attr) })
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
	return addr
}

// Flush uploads the pending rows on every in-sync replica, then uses the
// settled moment to probe quarantined replicas for readmission.
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

// Search implements cloud.PlainBackend.
func (s *ReplicatedStore) Search(values []relation.Value) []relation.Tuple {
	return readNoted(s, func(v *wire.StoreClient) ([]relation.Tuple, error) { return v.SearchErr(values) })
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
