package ring

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// RouterOptions tunes the client-side ring transport.
type RouterOptions struct {
	// DownCooldown is how long a node is skipped after a dial failure or a
	// dead connection before a call redials it (default 500ms). Reads fail
	// over instantly either way; the cooldown only bounds how often a dead
	// node costs a dial.
	DownCooldown time.Duration
}

func (o RouterOptions) cooldown() time.Duration {
	if o.DownCooldown <= 0 {
		return 500 * time.Millisecond
	}
	return o.DownCooldown
}

// errClosed is what a node handle answers once its router or coordinator
// has shut down.
var errClosed = errors.New("ring: closed")

// nodeConn is the handle on one ring node that the router and the
// coordinator both hold: a plain connection dialed on first use, dropped
// when it dies, and redialed only once the down-cooldown after that death
// (or after a failed dial) has lapsed. Nothing is replayed into a fresh
// connection: a replica that lost state is caught up by anti-entropy and
// readmission (see ReplicatedStore).
type nodeConn struct {
	node     Node
	dial     func(addr string) (*wire.Client, error)
	cooldown time.Duration

	mu        sync.Mutex
	c         *wire.Client
	dialDone  chan struct{} // closed when the dial in flight ends; nil when none is
	err       error         // why the node is down
	downUntil time.Time
	closed    bool
}

func newNodeConn(n Node, dial func(addr string) (*wire.Client, error), cooldown time.Duration) *nodeConn {
	return &nodeConn{node: n, dial: dial, cooldown: cooldown}
}

// downLocked drops a connection that has died, starting the cooldown, and
// returns why the node is down — nil once the cooldown has lapsed. nc.mu
// must be held.
func (nc *nodeConn) downLocked() error {
	if nc.c != nil {
		if err := nc.c.Err(); err != nil {
			nc.c.Close()
			nc.c = nil
			nc.markDownLocked(err)
		}
	}
	if time.Now().Before(nc.downUntil) {
		return nc.err
	}
	return nil
}

func (nc *nodeConn) markDownLocked(err error) {
	nc.err = err
	nc.downUntil = time.Now().Add(nc.cooldown)
}

// down returns why calls should not be routed here, or nil.
func (nc *nodeConn) down() error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.downLocked()
}

// status reports whether calls may be routed here, and whether a call
// would wait on a dial already in flight.
func (nc *nodeConn) status() (up, dialing bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.downLocked() == nil, nc.dialDone != nil
}

// client returns the node's live connection, dialing one when there is
// none and the node is not cooling down. The dial runs outside nc.mu, so
// routing checks never wait on a slow connect; concurrent callers share
// it. A closed handle dials nothing.
func (nc *nodeConn) client() (*wire.Client, error) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for nc.dialDone != nil {
		done := nc.dialDone
		nc.mu.Unlock()
		<-done
		nc.mu.Lock()
	}
	if nc.closed {
		return nil, errClosed
	}
	if err := nc.downLocked(); err != nil {
		return nil, fmt.Errorf("ring: node %s is down: %w", nc.node.ID, err)
	}
	if nc.c == nil {
		done := make(chan struct{})
		nc.dialDone = done
		nc.mu.Unlock()
		c, err := nc.dial(nc.node.Addr)
		nc.mu.Lock()
		nc.dialDone = nil
		close(done)
		switch {
		case err != nil:
			nc.markDownLocked(err)
			return nil, err
		case nc.closed:
			c.Close()
			return nil, errClosed
		}
		nc.c = c
	}
	return nc.c, nil
}

// close tears down the connection for good.
func (nc *nodeConn) close() error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.closed = true
	if nc.c == nil {
		return nil
	}
	err := nc.c.Close()
	nc.c = nil
	return err
}

// Router is the client-side ring transport: a wire.Transport whose
// per-namespace views are ReplicatedStores routed by the coordinator's
// placement directory. The directory is fetched once at dial time:
// placement over a static membership never moves, so routing needs no
// per-op directory traffic at all.
type Router struct {
	dirConn *wire.Client
	dir     *Directory
	ring    *Ring
	nodes   map[string]*nodeConn // by node ID

	mu     sync.Mutex
	stores map[string]*ReplicatedStore
}

var _ wire.Transport = (*Router)(nil)

// DialRouter connects to the qbring coordinator at ringAddr, fetches the
// placement directory, and returns the routing transport.
func DialRouter(ringAddr string, opts RouterOptions) (*Router, error) {
	c, err := wire.Dial(ringAddr)
	if err != nil {
		return nil, fmt.Errorf("ring: dial coordinator %s: %w", ringAddr, err)
	}
	r, err := NewRouter(c, wire.Dial, opts)
	if err != nil {
		c.Close()
		return nil, err
	}
	return r, nil
}

// NewRouter builds a Router over an established coordinator connection
// and a node dialer (tests inject pipe-based dialers here).
func NewRouter(dirConn *wire.Client, dialTo func(addr string) (*wire.Client, error), opts RouterOptions) (*Router, error) {
	dir, err := FetchDirectory(dirConn)
	if err != nil {
		return nil, fmt.Errorf("ring: fetch directory: %w", err)
	}
	if len(dir.Nodes) == 0 {
		return nil, fmt.Errorf("ring: directory version %d lists no nodes", dir.Version)
	}
	r := &Router{
		dirConn: dirConn,
		dir:     dir,
		ring:    Build(dir),
		nodes:   make(map[string]*nodeConn, len(dir.Nodes)),
		stores:  make(map[string]*ReplicatedStore),
	}
	for _, n := range dir.Nodes {
		r.nodes[n.ID] = newNodeConn(n, dialTo, opts.cooldown())
	}
	return r, nil
}

// Directory returns the directory fetched at dial time.
func (r *Router) Directory() *Directory { return r.dir }

// RequestRepair asks the coordinator for one immediate targeted
// anti-entropy round on a namespace (opRingRepair) — the readmission
// path's escape from sweep latency: a writer that finds a quarantined
// replica still short does not wait out the background repair interval
// with reads pinned to the stale replica.
func (r *Router) RequestRepair(ns string) error {
	return r.dirConn.RingRepair(ns)
}

// WithStore returns the replicated view of the named namespace (""
// selects wire.DefaultStore). The same name always yields the same view.
func (r *Router) WithStore(name string) *ReplicatedStore {
	name = canonicalStore(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.stores[name]; ok {
		return s
	}
	placement := r.ring.Placement(name)
	replicas := make([]*nodeConn, len(placement))
	for i, n := range placement {
		replicas[i] = r.nodes[n.ID]
	}
	s := newReplicatedStore(r, name, replicas)
	r.stores[name] = s
	return s
}

// Store implements wire.Transport.
func (r *Router) Store(name string) wire.Backend { return r.WithStore(name) }

// Ping probes the coordinator connection.
func (r *Router) Ping() error { return r.dirConn.Ping() }

// Close tears down the coordinator connection and every node connection;
// no view dials again afterwards.
func (r *Router) Close() error {
	first := r.dirConn.Close()
	for _, nc := range r.nodes {
		if err := nc.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// canonicalStore mirrors wire's storeName canonicalisation.
func canonicalStore(name string) string {
	if name == "" {
		return wire.DefaultStore
	}
	return name
}
