package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// This file is the framing layer underneath the protocol: every message
// in both directions, the opening hello included, rides one frame whose
// body is one request or response in the codec of codec.go:
//
//	+--------------------+---------------------+
//	| length uint32 (BE) | body (length bytes) |
//	+--------------------+---------------------+
//
// The direction says which envelope the body holds, so there is nothing
// else to tag. A gob-era (≤ v6) peer's opening bytes read as a length far
// past maxFramePayload, so either side refuses it at the first read.
const (
	// maxFramePayload bounds one frame's body. Far above any frame a
	// cooperative peer produces (large row pulls are chunked near
	// chunkTarget), it exists so a corrupt or hostile length prefix fails
	// explicitly instead of driving allocation.
	maxFramePayload = 256 << 20
	// frameReadStep bounds how much receive buffer is grown per read: a
	// lying length prefix cannot balloon memory past the bytes actually
	// delivered (plus one step).
	frameReadStep = 1 << 20
	// chunkTarget is the per-frame byte budget when the server streams a
	// large AttrColumn/Rows response as a partial-flagged chunk sequence.
	chunkTarget = 256 << 10
)

// maxRetainedFrame bounds the send buffer a frameWriter keeps between
// frames: one giant upload must not pin its high-water mark in memory for
// the life of the connection.
const maxRetainedFrame = 4 << 20

// frameWriter is the one send path of a connection end. Callers frame in
// place, under its lock, into a buffer it owns, so frames from concurrent
// senders never interleave and steady-state sends allocate nothing for
// framing.
type frameWriter struct {
	mu   sync.Mutex
	conn io.Writer
	buf  []byte
}

// write frames one message, which body appends to the buffer it is given,
// and sends the frame in one Write. A frame past maxRetainedFrame drops
// the buffer.
func (w *frameWriter) write(body func([]byte) []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := body(beginFrame(w.buf))
	err := finishFrame(w.conn, buf)
	if cap(buf) > maxRetainedFrame {
		buf = nil
	}
	w.buf = buf
	return err
}

// beginFrame starts assembling a frame in buf: a placeholder for the
// length prefix.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0)
}

// finishFrame patches the length prefix and writes the whole frame in one
// Write call.
func finishFrame(w io.Writer, buf []byte) error {
	if len(buf)-4 > maxFramePayload {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", len(buf)-4, maxFramePayload)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame into *scratch (grown to the largest frame seen
// and reused — each reader goroutine owns its scratch) and returns the
// body, aliasing the scratch until the next call. The buffer is
// grown towards the declared length in bounded steps, each requiring the
// peer to actually deliver the previous step, so a lying length prefix
// cannot balloon memory.
func readFrame(r io.Reader, scratch *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 {
		return nil, errors.New("wire: zero-length frame")
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, maxFramePayload)
	}
	buf := *scratch
	got := 0
	for got < n {
		want := min(n, got+frameReadStep)
		if cap(buf) < want {
			grown := make([]byte, want)
			copy(grown, buf[:got])
			buf = grown
		} else {
			buf = buf[:want]
		}
		m, err := io.ReadFull(r, buf[got:want])
		got += m
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	*scratch = buf
	return buf[:n], nil
}
