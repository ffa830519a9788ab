package ring

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// Config configures a qbring coordinator.
type Config struct {
	// Nodes are the qbcloud listen addresses forming the ring. The address
	// doubles as the node's stable ring identity, so it must not change
	// across node restarts.
	Nodes []string
	// Replicas is the replication factor R (default 2, clamped to the node
	// count at placement time).
	Replicas int
	// RingToken authorises intra-ring transfer (snapshot restore, repair
	// append) on the nodes. Leave nil only when the nodes run without one.
	RingToken []byte
	// HealthEvery is the liveness probe interval (default 500ms).
	HealthEvery time.Duration
	// RepairEvery is the anti-entropy sweep interval (default 1s).
	RepairEvery time.Duration
	// Logf, when set, receives one line per health flip and repair action.
	Logf func(format string, args ...any)
}

func (c Config) healthEvery() time.Duration {
	if c.HealthEvery <= 0 {
		return 500 * time.Millisecond
	}
	return c.HealthEvery
}

func (c Config) repairEvery() time.Duration {
	if c.RepairEvery <= 0 {
		return time.Second
	}
	return c.RepairEvery
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// RepairStats counts what the anti-entropy sweeps did.
type RepairStats struct {
	// Tails is the number of tail-delta repairs applied.
	Tails uint64
	// Snapshots is the number of full snapshot transfers applied.
	Snapshots uint64
	// Rows is the total encrypted rows shipped by tail repairs.
	Rows uint64
}

// Coordinator is the qbring control plane: it owns the placement
// directory (membership + replication factor + liveness), probes node
// health, and runs the anti-entropy repair loop that catches lagging or
// rejoining replicas up to their peers.
//
// The coordinator is deliberately OFF the data path — owners talk to the
// replicas directly — so its own availability only gates new routers
// (they fetch the directory at dial time) and repair, never queries or
// writes to in-sync replicas.
type Coordinator struct {
	cfg Config

	mu   sync.Mutex
	dir  *Directory
	blob []byte
	ring *Ring

	conns map[string]*nodeConn // by node address; fixed at New

	statMu sync.Mutex
	stats  RepairStats

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// New builds a coordinator over the configured membership. The directory
// starts at version 1 with every node presumed alive; the first health
// sweep corrects that within one probe interval.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("ring: coordinator needs at least one node")
	}
	seen := make(map[string]struct{}, len(cfg.Nodes))
	nodes := make([]Node, 0, len(cfg.Nodes))
	for _, addr := range cfg.Nodes {
		if addr == "" {
			return nil, fmt.Errorf("ring: empty node address")
		}
		if _, dup := seen[addr]; dup {
			return nil, fmt.Errorf("ring: duplicate node address %q", addr)
		}
		seen[addr] = struct{}{}
		nodes = append(nodes, Node{ID: addr, Addr: addr, Alive: true})
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	dir := &Directory{Version: 1, Replicas: cfg.Replicas, Nodes: nodes}
	blob, err := dir.Encode()
	if err != nil {
		return nil, err
	}
	conns := make(map[string]*nodeConn, len(nodes))
	for _, n := range nodes {
		// No cooldown: the health and repair loops already pace the dials.
		conns[n.Addr] = newNodeConn(n, wire.Dial, 0)
	}
	return &Coordinator{
		cfg:     cfg,
		dir:     dir,
		blob:    blob,
		ring:    Build(dir),
		conns:   conns,
		stopped: make(chan struct{}),
	}, nil
}

// Directory returns the current directory.
func (co *Coordinator) Directory() *Directory {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.dir
}

// Stats returns a snapshot of the repair counters.
func (co *Coordinator) Stats() RepairStats {
	co.statMu.Lock()
	defer co.statMu.Unlock()
	return co.stats
}

// DirectoryBlob is the wire.Cloud ring-directory provider: the current
// directory, encoded.
func (co *Coordinator) DirectoryBlob() []byte {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.blob
}

// Run starts the health and repair loops. Stop shuts them down.
func (co *Coordinator) Run() {
	co.wg.Add(2)
	go func() {
		defer co.wg.Done()
		t := time.NewTicker(co.cfg.healthEvery())
		defer t.Stop()
		for {
			select {
			case <-co.stopped:
				return
			case <-t.C:
				co.HealthCheckOnce()
			}
		}
	}()
	go func() {
		defer co.wg.Done()
		t := time.NewTicker(co.cfg.repairEvery())
		defer t.Stop()
		for {
			select {
			case <-co.stopped:
				return
			case <-t.C:
				co.RepairOnce()
			}
		}
	}()
}

// Stop terminates the loops and closes the node connections; a stopped
// coordinator dials no node again.
func (co *Coordinator) Stop() {
	co.stopOnce.Do(func() { close(co.stopped) })
	co.wg.Wait()
	for _, nc := range co.conns {
		nc.close()
	}
}

// conn returns the control connection to a ring member, redialing one
// that has died.
func (co *Coordinator) conn(addr string) (*wire.Client, error) {
	return co.conns[addr].client()
}

// HealthCheckOnce probes every node and publishes a new directory version
// when liveness changed.
func (co *Coordinator) HealthCheckOnce() {
	co.mu.Lock()
	nodes := make([]Node, len(co.dir.Nodes))
	copy(nodes, co.dir.Nodes)
	co.mu.Unlock()

	changed := false
	for i := range nodes {
		alive := false
		if c, err := co.conn(nodes[i].Addr); err == nil {
			alive = c.Ping() == nil
		}
		if alive != nodes[i].Alive {
			co.cfg.logf("qbring: node %s %s", nodes[i].ID, liveness(alive))
			nodes[i].Alive = alive
			changed = true
		}
	}
	if !changed {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	dir := &Directory{Version: co.dir.Version + 1, Replicas: co.dir.Replicas, Nodes: nodes}
	blob, err := dir.Encode()
	if err != nil {
		co.cfg.logf("qbring: directory encode: %v", err)
		return
	}
	co.dir = dir
	co.blob = blob
	co.ring = Build(dir)
}

func liveness(alive bool) string {
	if alive {
		return "up"
	}
	return "down"
}

// replicaState is one replica's observation during a repair sweep.
type replicaState struct {
	node Node
	c    *wire.Client
	info wire.StoreInfo
}

// RepairOnce runs one anti-entropy sweep: for every namespace hosted
// anywhere in the ring, compare its replicas and catch laggers up —
// a tail-delta append when only encrypted rows lag, a full snapshot
// transfer when the replica is fresh, restarted, or structurally behind
// (clear-text partition or ownership claim mismatch).
//
// Repair is safe against concurrent owner writes without any locking
// across nodes: the tail is installed with a compare-and-swap on the row
// count (AppendIfLen), so a write that lands between probe and append
// fails the CAS cleanly and the sweep simply retries next round. The CP
// write path guarantees a lagging replica's rows are a strict prefix of
// its peers' (a replica that misses one write is quarantined from the
// write set until repaired), which is what makes count-based comparison
// sound in the first place.
func (co *Coordinator) RepairOnce() RepairStats {
	var done RepairStats
	co.mu.Lock()
	dir := co.dir
	ring := co.ring
	co.mu.Unlock()

	// Namespace discovery: the union of hosted namespaces across alive
	// nodes. A namespace a dead node hosts exclusively has no live source
	// to repair from anyway.
	names := make(map[string]struct{})
	for _, n := range dir.Nodes {
		if !n.Alive {
			continue
		}
		c, err := co.conn(n.Addr)
		if err != nil {
			continue
		}
		hosted, err := c.AdminList()
		if err != nil {
			continue
		}
		for _, ns := range hosted {
			names[ns] = struct{}{}
		}
	}
	ordered := make([]string, 0, len(names))
	for ns := range names {
		ordered = append(ordered, ns)
	}
	sort.Strings(ordered)

	for _, ns := range ordered {
		st := co.repairNamespace(ns, ring, false)
		done.Tails += st.Tails
		done.Snapshots += st.Snapshots
		done.Rows += st.Rows
	}
	if done.Tails+done.Snapshots > 0 {
		co.statMu.Lock()
		co.stats.Tails += done.Tails
		co.stats.Snapshots += done.Snapshots
		co.stats.Rows += done.Rows
		co.statMu.Unlock()
	}
	return done
}

// RepairNamespace runs one immediate, targeted anti-entropy round for a
// single namespace — the handler behind opRingRepair. It bypasses the
// sweep's divergence grace window: the caller is a writer whose
// readmission probe already observed a quarantined replica lagging, so
// the divergence is established fact, and making the writer wait out the
// sweep interval would leave reads pinned to the stale replica for the
// duration. The round is still CAS-safe against concurrent owner writes,
// exactly like the sweep.
func (co *Coordinator) RepairNamespace(ns string) RepairStats {
	co.mu.Lock()
	ring := co.ring
	co.mu.Unlock()
	st := co.repairNamespace(ns, ring, true)
	if st.Tails+st.Snapshots > 0 {
		co.statMu.Lock()
		co.stats.Tails += st.Tails
		co.stats.Snapshots += st.Snapshots
		co.stats.Rows += st.Rows
		co.statMu.Unlock()
	}
	return st
}

// divergenceConfirmDelay is how long the sweep waits before re-probing a
// divergent replica to tell a genuinely stuck lagger from the
// sub-millisecond gap inside a healthy fan-out write (the probe can land
// between replica A acking and replica B acking the same insert).
const divergenceConfirmDelay = 50 * time.Millisecond

// confirmDivergence re-probes a divergent replica after a short delay and
// reports whether it is genuinely stuck: byte-identical replica state at
// both probes. Any movement — a row landing, the plain partition growing,
// an epoch change — means the replica is live and mid-write; "repairing"
// it then would steal the in-flight write's length CAS and quarantine a
// healthy replica, so the sweep skips it and re-evaluates next round. A
// replica that really missed a write is excluded from the write set, so
// its deficit is static and confirms here on the first sweep that sees it.
func (co *Coordinator) confirmDivergence(ns string, st replicaState) bool {
	select {
	case <-co.stopped:
		return false
	case <-time.After(divergenceConfirmDelay):
	}
	info, err := st.c.StoreInfo(ns)
	if err != nil {
		return false
	}
	return info == st.info
}

// repairNamespace compares one namespace's replicas and repairs laggers.
// With force unset a divergent replica is only acted on once the
// divergence is confirmed static (see confirmDivergence); force bypasses
// the confirmation for targeted repairs, whose caller has already
// observed the divergence persist.
func (co *Coordinator) repairNamespace(ns string, ring *Ring, force bool) RepairStats {
	var done RepairStats
	placement := ring.Placement(ns)
	states := make([]replicaState, 0, len(placement))
	for _, n := range placement {
		c, err := co.conn(n.Addr)
		if err != nil {
			continue
		}
		info, err := c.StoreInfo(ns)
		if err != nil {
			continue
		}
		states = append(states, replicaState{node: n, c: c, info: info})
	}
	if len(states) < 2 {
		return done
	}

	// The repair source is the most advanced reachable replica: most
	// encrypted rows, then most clear-text tuples on a tie. Under the CP
	// write policy every replica's data is a prefix of the leader's.
	target := -1
	for i, st := range states {
		if !st.info.Exists {
			continue
		}
		if target == -1 {
			target = i
			continue
		}
		t := states[target].info
		if st.info.EncRows > t.EncRows ||
			(st.info.EncRows == t.EncRows && st.info.PlainTuples > t.PlainTuples) {
			target = i
		}
	}
	if target == -1 {
		return done
	}
	src := states[target]

	for i, st := range states {
		if i == target {
			continue
		}
		structural := !st.info.Exists ||
			st.info.PlainTuples != src.info.PlainTuples ||
			st.info.Claimed != src.info.Claimed
		if !structural && st.info.EncRows >= src.info.EncRows {
			continue
		}
		// A healthy fan-out write is briefly visible as both a structural
		// gap (PlainTuples off by one between the first and last replica
		// acking) and an encrypted-row lag; only a confirmed-static
		// divergence is acted on.
		if !force && !co.confirmDivergence(ns, st) {
			continue
		}
		switch {
		case structural:
			blob, err := src.c.StoreSnapshot(ns)
			if err != nil {
				co.cfg.logf("qbring: repair %s: snapshot from %s: %v", ns, src.node.ID, err)
				continue
			}
			n, err := st.c.StoreRestore(ns, blob, co.cfg.RingToken)
			if err != nil {
				co.cfg.logf("qbring: repair %s: restore on %s: %v", ns, st.node.ID, err)
				continue
			}
			co.cfg.logf("qbring: repair %s: snapshot %s -> %s (%d rows)", ns, src.node.ID, st.node.ID, n)
			done.Snapshots++
		default: // st.info.EncRows < src.info.EncRows
			have := st.info.EncRows
			rows, _, delta, err := src.c.WithStore(ns).RowsSince(
				storage.EncVersion{Epoch: src.info.VerEpoch, N: src.info.VerN}, have)
			if err != nil || !delta {
				// The source changed identity between probe and pull
				// (restart); re-probe next sweep.
				continue
			}
			if len(rows) == 0 {
				continue
			}
			if _, err := st.c.RepairAppend(ns, rows, have, co.cfg.RingToken); err != nil {
				// Usually the CAS losing to a concurrent owner write;
				// next sweep re-probes.
				co.cfg.logf("qbring: repair %s: append on %s: %v", ns, st.node.ID, err)
				continue
			}
			co.cfg.logf("qbring: repair %s: tail %s -> %s (+%d rows)", ns, src.node.ID, st.node.ID, len(rows))
			done.Tails++
			done.Rows += uint64(len(rows))
		}
	}
	return done
}
