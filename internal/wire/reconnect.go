package wire

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// This file turns sticky transport poison into transparent retry. A plain
// *Client is poisoned forever by its first transport failure — correct for
// a single connection, fatal for a long-running owner process whose cloud
// restarts or whose network blips. A Reconnector wraps the dial, watches
// for poison, and rebuilds an equivalent connection underneath the same
// namespace views:
//
//  1. redial with capped exponential backoff,
//  2. re-run the opHello handshake and probe liveness with opPing,
//  3. call the restore hook of every view derived from it
//     (StoreClient.restore: re-Load the clear-text replay mirror, reconcile
//     the encrypted row count, replay retained uploads exactly once).
//
// Nothing migrates between connections: the views own their buffers and
// mirrors, the Reconnector only decides which *Client they get next.

// errReconnClosed is the sticky error after an explicit Close.
var errReconnClosed = errors.New("wire: reconnector closed")

// ReconnectOptions tunes the redial loop. The zero value selects the
// defaults: 10 attempts per reconnect cycle, 25ms initial backoff doubling
// up to a 1s cap.
type ReconnectOptions struct {
	// MaxRetries bounds dial attempts per reconnect cycle (and retry
	// cycles per operation); <= 0 selects 10.
	MaxRetries int
	// BaseDelay is the backoff before the second attempt; <= 0 selects
	// 25ms. Doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 selects 1s.
	MaxDelay time.Duration
	// Clock supplies time to the backoff loop; nil selects the real
	// clock. Tests inject a fake so backoff coverage does not sleep.
	Clock Clock
}

func (o ReconnectOptions) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return 10
}

func (o ReconnectOptions) baseDelay() time.Duration {
	if o.BaseDelay > 0 {
		return o.BaseDelay
	}
	return 25 * time.Millisecond
}

func (o ReconnectOptions) maxDelay() time.Duration {
	if o.MaxDelay > 0 {
		return o.MaxDelay
	}
	return time.Second
}

func (o ReconnectOptions) clock() Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return realClock{}
}

// Reconnector is a Transport (and a link) over a dial function instead of
// a single connection: per-namespace views (Store/WithStore) survive
// connection death, reconnecting and replaying under the callers' feet.
// Operations in flight during a failure block until the reconnect cycle
// completes and then retry; only an exhausted redial loop, an
// unreconcilable resync, or an explicit Close fails them.
//
// Reconnector is safe for concurrent use.
type Reconnector struct {
	dial func() (*Client, error)
	opts ReconnectOptions

	mu           sync.Mutex
	cond         *sync.Cond
	cur          *Client // current connection; nil before the first op
	reconnecting bool
	closed       bool
	permErr      error         // unrecoverable failure, sticky
	closedCh     chan struct{} // closed by Close: aborts backoff sleeps

	// stores are the views derived from this Reconnector: the ones a
	// reconnect cycle restores.
	stores views
}

// NewReconnector wraps a dial function (lazy: the first operation
// connects). Tests hand it net.Pipe factories; production uses
// DialReconnect.
func NewReconnector(dial func() (*Client, error), opts ReconnectOptions) *Reconnector {
	rc := &Reconnector{
		dial:     dial,
		opts:     opts,
		closedCh: make(chan struct{}),
	}
	rc.cond = sync.NewCond(&rc.mu)
	return rc
}

// DialReconnect returns a reconnecting transport to the cloud at addr. The
// first connection is established eagerly so a misconfigured address fails
// fast at construction rather than at the first query.
func DialReconnect(addr string, opts ReconnectOptions) (*Reconnector, error) {
	rc := NewReconnector(func() (*Client, error) { return Dial(addr) }, opts)
	c, err := rc.dial()
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	rc.cur = c
	rc.mu.Unlock()
	return rc, nil
}

// WithStore returns the reconnect-surviving view of the named namespace
// ("" means DefaultStore). The same name always yields the same view.
func (rc *Reconnector) WithStore(name string) *StoreClient {
	return rc.stores.get(name, func(name string) *StoreClient {
		return &StoreClient{store: name, link: rc, replays: true}
	})
}

// Store implements Transport.
func (rc *Reconnector) Store(name string) Backend { return rc.WithStore(name) }

// Close tears the transport down for good: the current connection dies,
// blocked reconnect sleeps abort, and every later operation fails with a
// closed error. Like Client.Close, a clean close is not a failure: Err
// stays nil.
func (rc *Reconnector) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	close(rc.closedCh)
	cur := rc.cur
	rc.cond.Broadcast()
	rc.mu.Unlock()
	if cur != nil {
		return cur.Close()
	}
	return nil
}

// Err reports the sticky unrecoverable error, if any: redial exhaustion or
// an unreconcilable resync. Transient transport failures never surface
// here — they are the Reconnector's job — and neither does a clean Close.
func (rc *Reconnector) Err() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.permErr
}

// budget implements link: retry cycles per operation.
func (rc *Reconnector) budget() int { return rc.opts.maxRetries() }

// Ping checks that a live, handshaken connection exists — dialing one if
// needed — and probes it.
func (rc *Reconnector) Ping() error {
	var lastErr error
	for i := 0; i < rc.budget(); i++ {
		c, err := rc.acquire()
		if err != nil {
			return err
		}
		if err := c.Ping(); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// acquire implements link: it returns a healthy connection, running (or
// waiting on) a reconnect cycle when the current one is poisoned. It
// fails only on Close or a permanent error.
func (rc *Reconnector) acquire() (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for {
		switch {
		case rc.closed:
			return nil, errReconnClosed
		case rc.permErr != nil:
			return nil, rc.permErr
		case rc.cur != nil && rc.cur.stickyErr() == nil:
			return rc.cur, nil
		case rc.reconnecting:
			rc.cond.Wait()
		default:
			rc.reconnecting = true
			old := rc.cur
			rc.mu.Unlock()
			next, err := rc.reconnect(old)
			rc.mu.Lock()
			rc.reconnecting = false
			switch {
			case err != nil:
				if !rc.closed && !errors.Is(err, errReconnClosed) {
					rc.permErr = err
				}
			case rc.closed:
				// Close won the race with the cycle: the fresh connection
				// must not outlive the transport it was dialed for.
				next.Close()
			default:
				rc.cur = next
			}
			rc.cond.Broadcast()
		}
	}
}

// reconnect runs one full cycle: bury the dead connection, then redial
// with capped exponential backoff until a connection passes the
// handshake, the liveness probe and every view's restore. Transient
// failures consume attempts; a restore the cloud itself refuses (an
// unreconcilable count, a rejected replay) aborts the cycle with a
// permanent error.
func (rc *Reconnector) reconnect(old *Client) (*Client, error) {
	if old != nil {
		old.Close()
	}
	vs := rc.stores.list()

	// Jittered capped exponential backoff: each sleep is drawn uniformly
	// from [delay/2, delay], so N clients orphaned by one node crash
	// spread their redials across half a backoff window instead of
	// hammering the restarted node in lockstep. The generator is seeded
	// from the injected clock, never the wall clock, so tests driving a
	// fake clock get a deterministic schedule to assert bounds against.
	delay := rc.opts.baseDelay()
	seed := uint64(rc.opts.clock().Now().UnixNano())
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	var lastErr error
	for attempt := 0; attempt < rc.opts.maxRetries(); attempt++ {
		if attempt > 0 {
			sleep := delay
			if half := int64(delay / 2); half > 0 {
				sleep = delay/2 + time.Duration(rng.Int64N(half+1))
			}
			select {
			case <-rc.opts.clock().After(sleep):
			case <-rc.closedCh:
				return nil, errReconnClosed
			}
			delay *= 2
			if delay > rc.opts.maxDelay() {
				delay = rc.opts.maxDelay()
			}
		}
		c, err := rc.dial()
		if err != nil {
			lastErr = err
			continue
		}
		// Handshake + post-redial liveness probe in one round trip.
		if err := c.Ping(); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		if err := restoreAll(c, vs); err != nil {
			// An error on a connection that is still healthy is the cloud's
			// verdict, and no redial changes it; on a dead one it is just
			// another transport failure.
			permanent := c.stickyErr() == nil
			c.Close()
			if permanent {
				return nil, err
			}
			lastErr = err
			continue
		}
		return c, nil
	}
	return nil, fmt.Errorf("wire: reconnect: gave up after %d attempts: %w", rc.opts.maxRetries(), lastErr)
}

// restoreAll runs every view's restore hook against c.
func restoreAll(c *Client, vs []*StoreClient) error {
	for _, s := range vs {
		if err := s.restore(c); err != nil {
			return err
		}
	}
	return nil
}
