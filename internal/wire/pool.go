package wire

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/technique"
)

// Backend is the owner-side view of a remote cloud namespace:
// cloud.PlainBackend plus technique.BatchEncStore (the encrypted store
// including the batched read path) plus the lifecycle and error surface.
// *StoreClient is its one implementation over the network — whatever the
// link beneath it (one connection, a reconnecting one, a pool of either)
// — so callers pick connection-level parallelism, self-healing and
// namespacing without changing anything else.
type Backend interface {
	cloud.PlainBackend
	technique.BatchEncStore
	technique.VersionedEncStore

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

// Transport is a shared connection (or connection pool) to one cloud from
// which per-namespace Backend views are derived. It is what a process
// serving several relations holds once and shares.
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
	_ Transport = (*Pool)(nil)
	_ member    = (*Client)(nil)
	_ member    = (*Reconnector)(nil)
)

// member is a link a Pool can be built over: besides carrying requests it
// can home a namespace view and report whether reads should be routed to
// it. Both *Client (fail-fast; poisoned by its first transport error) and
// *Reconnector (self-healing; unhealthy only after a permanent failure)
// qualify, so pools compose with reconnecting transports — each pooled
// Reconnector redials its own connection and restores the namespaces
// homed on it, while the rest of the pool keeps serving.
type member interface {
	link
	// view returns the namespace's view homed on this member — the member
	// that restores it after a reconnect — whose requests travel through
	// over.
	view(name string, over link) *StoreClient
	// healthy reports whether reads should be routed here.
	healthy() bool
}

// Pool fans calls out over several multiplexed connections to the same
// cloud. A single connection already supports unbounded in-flight calls,
// but its frames share one gob stream and one server-side decode loop;
// for CPU-bound encrypted scans a few extra connections let the server
// decode, dispatch and encode in parallel.
//
// Mutating state is per namespace, pinned per store rather than per pool:
// each namespace view (WithStore) is assigned a home member in
// round-robin order, and only that member carries the namespace's writes
// (and, when it reconnects, restores it). Two tenants writing through one
// pool therefore use two different connections instead of serialising on
// a single primary. Read ops round-robin across every healthy member; the
// view flushes its buffered uploads through the home first, so they are
// visible regardless of which connection serves the read. Blocking call
// semantics make this safe: an op's server-side effect completes before
// the call returns, and the stores are shared across connections.
type Pool struct {
	conns []member
	next  atomic.Uint64

	stores   views
	nextHome int // guarded by stores.mu
}

// NewPool composes established links — Clients (e.g. net.Pipe pairs in
// tests) or Reconnectors — into a pool. It panics on an empty slice.
func NewPool[L member](links []L) *Pool {
	if len(links) == 0 {
		panic("wire: NewPool with no connections")
	}
	p := &Pool{conns: make([]member, len(links))}
	for i, l := range links {
		p.conns[i] = l
	}
	// The default namespace is homed first so its home is conns[0] — the
	// "writes pinned to the primary" behaviour single-store callers have
	// always seen.
	p.WithStore(DefaultStore)
	return p
}

// DialPool dials n links (n <= 1 degrades to a pool of one) and composes
// them: Dial for fail-fast members, DialReconnect for members that each
// redial their own connection on failure — one connection's death then
// stalls only the ops routed to it mid-cycle.
func DialPool[L member](n int, dial func() (L, error)) (*Pool, error) {
	n = max(n, 1)
	links := make([]L, 0, n)
	for i := 0; i < n; i++ {
		l, err := dial()
		if err != nil {
			for _, open := range links {
				open.Close()
			}
			return nil, fmt.Errorf("wire: dial pool conn %d/%d: %w", i+1, n, err)
		}
		links = append(links, l)
	}
	return NewPool(links), nil
}

// WithStore returns the view of the named server-side namespace ("" means
// DefaultStore), assigning it a home member for mutations in round-robin
// order on first use. The same name always yields the same view.
func (p *Pool) WithStore(name string) *StoreClient {
	return p.stores.get(name, func(name string) *StoreClient {
		home := p.conns[p.nextHome%len(p.conns)]
		p.nextHome++
		return home.view(name, poolLink{p, home})
	})
}

// Store implements Transport: the Backend view of one namespace.
func (p *Pool) Store(name string) Backend { return p.WithStore(name) }

// Size reports the number of pooled connections.
func (p *Pool) Size() int { return len(p.conns) }

// pick round-robins across all members for read ops, skipping unhealthy
// ones: a dead secondary must not keep swallowing reads as silent zero
// values while the rest of the pool works. With every member unhealthy it
// falls back to the first, whose fail-fast errors surface the cause.
func (p *Pool) pick() member {
	n := uint64(len(p.conns))
	start := p.next.Add(1)
	for i := uint64(0); i < n; i++ {
		if c := p.conns[(start+i)%n]; c.healthy() {
			return c
		}
	}
	return p.conns[0]
}

// Close closes every connection, returning the first error.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Ping checks liveness of every pooled connection.
func (p *Pool) Ping() error {
	for _, c := range p.conns {
		if err := c.Ping(); err != nil {
			return err
		}
	}
	return nil
}

// Err returns the first member's sticky transport error: the home of the
// default namespace and the pool's liveness bellwether. A dead secondary
// is degradation, not failure — pick() routes reads around it — so it
// must not permanently fail an otherwise healthy pool. Ops that failed on
// a secondary before the routing kicked in are observable through the
// issuing view's LogicalErr/LogicalErrCount (and a namespace homed on the
// dead connection through its view's Err), and the capacity loss through
// Alive.
func (p *Pool) Err() error { return p.conns[0].Err() }

// Alive reports how many pooled connections are healthy (not poisoned;
// for reconnecting members, not permanently failed).
func (p *Pool) Alive() int {
	n := 0
	for _, c := range p.conns {
		if c.healthy() {
			n++
		}
	}
	return n
}

// poolLink is a pooled namespace's link: mutations go through the
// namespace's home member, reads round-robin across every healthy member.
type poolLink struct {
	p    *Pool
	home member
}

func (l poolLink) acquire(write bool) (*Client, error) {
	if write {
		return l.home.acquire(true)
	}
	return l.p.pick().acquire(false)
}

func (l poolLink) budget() int { return l.home.budget() }

// Ping checks liveness of every pooled connection.
func (l poolLink) Ping() error { return l.p.Ping() }

// Err is the home member's sticky error: the one this namespace's writes
// depend on.
func (l poolLink) Err() error { return l.home.Err() }

// Close closes the SHARED pool: every namespace view dies with it.
func (l poolLink) Close() error { return l.p.Close() }
