package wire

import (
	"errors"
	"fmt"
)

// This file is the client-side multiplexing core: each caller frames its
// own request in place through the connection's frameWriter, one reader
// goroutine demultiplexes responses by ID, and any number of callers block
// on their own in-flight entry. Transport failures tear the whole
// connection down (every waiter is released with the same sticky error);
// server-side logical errors are delivered only to the call that caused
// them.

// errClientClosed is the sticky error after an explicit Close.
var errClientClosed = errors.New("wire: client closed")

// roundTrip is rawRoundTrip behind the version handshake: the first call
// on a connection performs the opHello exchange (concurrent callers wait
// on it), so no op ever reaches a server whose protocol generation does
// not match.
func (c *Client) roundTrip(req *request) (*response, error) {
	if err := c.ensureHello(); err != nil {
		return nil, err
	}
	return c.rawRoundTrip(req)
}

// ensureHello performs the version handshake exactly once. A server
// answering with another version poisons the client with an explicit
// version-mismatch error so every later call fails loudly rather than
// risking misrouted frames.
func (c *Client) ensureHello() error {
	c.helloOnce.Do(func() {
		resp, err := c.rawRoundTrip(&request{Op: opHello, Version: ProtocolVersion})
		switch {
		case err != nil:
			c.helloErr = err
		case resp.Version != ProtocolVersion:
			c.helloErr = fmt.Errorf(
				"wire: protocol version mismatch: client speaks v%d, server answered v%d",
				ProtocolVersion, resp.Version)
			c.fail(c.helloErr)
		}
	})
	return c.helloErr
}

// rawRoundTrip registers one request's in-flight slot, frames the request
// in place and blocks until its response arrives or the connection dies; a
// failed write fails the connection. Transport failures come back as the
// sticky error (the client is poisoned); a server-side logical error comes
// back as a plain error and leaves the connection healthy.
func (c *Client) rawRoundTrip(req *request) (*response, error) {
	ch := make(chan *response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.inflight[req.ID] = ch
	c.mu.Unlock()

	if err := c.send.write(func(b []byte) []byte { return appendRequest(b, req) }); err != nil {
		c.fail(fmt.Errorf("wire: send: %w", err))
		return nil, c.takeInflightErr(req.ID, ch)
	}

	select {
	case resp := <-ch:
		return respOrLogicalErr(resp)
	case <-c.dead:
		return nil, c.takeInflightErr(req.ID, ch)
	}
}

// respOrLogicalErr converts a server error string into a per-call error.
func respOrLogicalErr(resp *response) (*response, error) {
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp, nil
}

// takeInflightErr resolves the race between connection death and a
// response that was already demuxed to us: prefer the response, else
// deregister and report the sticky error.
func (c *Client) takeInflightErr(id uint64, ch chan *response) error {
	c.mu.Lock()
	delete(c.inflight, id)
	err := c.err
	c.mu.Unlock()
	select {
	case resp := <-ch:
		if _, lerr := respOrLogicalErr(resp); lerr != nil {
			return lerr
		}
		// A successful response raced the teardown; the caller still has
		// to treat the call as failed because we already returned the
		// error path — report the sticky cause.
		return err
	default:
	}
	return err
}

// readLoop decodes response frames and demultiplexes them by ID to the
// waiting caller. It owns the frame scratch and the incoming half of the
// connection; nothing else may touch them.
func (c *Client) readLoop() {
	// partials holds chunked row responses by ID until their final frame
	// (respFlagPartial clear) arrives, each chunk decoded straight into the
	// stream's one row slice; chunks of one response are ordered, frames
	// of other responses may interleave between them.
	partials := make(map[uint64]*response)
	for {
		resp, err := c.readResponse(partials)
		if err != nil {
			c.fail(fmt.Errorf("wire: receive: %w", err))
			return
		}
		if resp == nil {
			continue // a partial chunk, absorbed into partials
		}
		c.mu.Lock()
		ch, ok := c.inflight[resp.ID]
		if ok {
			delete(c.inflight, resp.ID)
		}
		c.mu.Unlock()
		if !ok {
			// A response nobody asked for means the framing (or the
			// server) is broken; nothing decoded after this point can be
			// trusted.
			c.fail(fmt.Errorf("wire: receive: unknown response ID %d", resp.ID))
			return
		}
		ch <- resp
	}
}

// readResponse reads one frame off the connection. It returns (nil, nil)
// when the frame was a partial chunk that was absorbed into partials.
func (c *Client) readResponse(partials map[uint64]*response) (*response, error) {
	body, err := readFrame(c.br, &c.readBuf)
	if err != nil {
		return nil, err
	}
	resp, partial, err := decodeResponse(body, partials)
	if err != nil {
		return nil, err
	}
	if partial {
		partials[resp.ID] = resp
		return nil, nil
	}
	delete(partials, resp.ID)
	return resp, nil
}

// fail records the first transport error, closes the dead channel so
// every caller awaiting a response is released, and tears down the
// connection so the reader exits and every caller in or waiting for the
// frame write fails out of it.
func (c *Client) fail(err error) { _ = c.shutdown(err) }

// shutdown is fail with the underlying conn.Close result reported to the
// caller that actually performed the teardown (nil on repeat calls).
func (c *Client) shutdown(err error) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil
	}
	c.err = err
	close(c.dead)
	c.mu.Unlock()
	return c.conn.Close()
}

// stickyErr returns the raw sticky error, including an explicit Close
// (unlike Err, which reports a clean close as nil).
func (c *Client) stickyErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
