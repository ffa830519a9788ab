package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/storage"
)

// fillSmallRows appends n rows shaped like a NoInd or DetIndex column's to
// an in-process store: a 37-byte attribute ciphertext (an Int cell under
// AES-GCM), a tuple ciphertext of 40–119 bytes, and a token on every
// third row.
func fillSmallRows(enc *storage.EncryptedStore, n int, rng *mrand.Rand) {
	for i := 0; i < n; i++ {
		tuple := make([]byte, 40+rng.IntN(80))
		attr := make([]byte, 37)
		for _, b := range [][]byte{tuple, attr} {
			for j := range b {
				b[j] = byte(rng.Uint32())
			}
		}
		var token []byte
		if i%3 == 0 {
			token = binary.BigEndian.AppendUint64(nil, rng.Uint64())
		}
		enc.Add(tuple, attr, token)
	}
}

// sameRows reports the first field in which got and want differ, bytes
// and nil-ness included; "" when they are equal row for row.
func sameRows(got, want []storage.EncRow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Addr != w.Addr {
			return fmt.Sprintf("row %d: Addr %d, want %d", i, g.Addr, w.Addr)
		}
		for _, f := range []struct {
			name string
			g, w []byte
		}{{"TupleCT", g.TupleCT, w.TupleCT}, {"AttrCT", g.AttrCT, w.AttrCT}, {"Token", g.Token, w.Token}} {
			if (f.g == nil) != (f.w == nil) || !bytes.Equal(f.g, f.w) {
				return fmt.Sprintf("row %d (addr %d): %s %x (nil %v), want %x (nil %v)",
					i, w.Addr, f.name, f.g, f.g == nil, f.w, f.w == nil)
			}
		}
	}
	return ""
}

// reorderProxy relays one client connection to a cloud. After the first
// chunk of a streamed response it holds the stream's later chunks back
// until a frame of another response has passed, so that response lands
// between the stream's chunks however the server scheduled its frames.
type reorderProxy struct {
	firstChunk chan uint64 // the ID of each stream whose first chunk passed

	mu          sync.Mutex
	frames      map[uint64]int // frames relayed per response ID
	interleaved int            // streams another response was slipped into
}

func relayReordering(t *testing.T, client, server net.Conn) *reorderProxy {
	t.Helper()
	// firstChunk holds more IDs than a test opens streams, so the relay
	// never waits on the test to read one.
	p := &reorderProxy{firstChunk: make(chan uint64, 8), frames: make(map[uint64]int)}
	t.Cleanup(func() { client.Close(); server.Close() })
	go func() {
		defer server.Close()
		_, _ = io.Copy(server, client) // requests pass as they are
	}()
	go func() {
		defer client.Close()
		var scratch []byte
		var held [][]byte
		var holding, passing uint64 // the stream held back; a released one
		send := func(frame []byte) bool { return finishFrame(client, frame) == nil }
		for {
			body, err := readFrame(server, &scratch)
			if err != nil {
				return
			}
			id, w := binary.Uvarint(body)
			partial := w > 0 && len(body) > w && body[w]&respFlagPartial != 0
			frame := append(beginFrame(nil), body...)
			p.mu.Lock()
			p.frames[id]++
			p.mu.Unlock()
			switch {
			case holding != 0 && id == holding:
				held = append(held, frame)
			case holding == 0 && partial && id != passing:
				if !send(frame) {
					return
				}
				holding = id
				p.firstChunk <- id
			default:
				if !send(frame) {
					return
				}
				if holding == 0 {
					continue
				}
				for _, h := range held {
					if !send(h) {
						return
					}
				}
				held, passing, holding = nil, holding, 0
				p.mu.Lock()
				p.interleaved++
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// proxiedClient connects a client to cl through a reorderProxy, over
// net.Pipe or TCP loopback on the client's side.
func proxiedClient(t *testing.T, cl *Cloud, link string) (*Client, *reorderProxy) {
	t.Helper()
	toCloud, cloudEnd := net.Pipe()
	go cl.ServeConn(cloudEnd)
	var clientEnd, proxyEnd net.Conn
	switch link {
	case "pipe":
		clientEnd, proxyEnd = net.Pipe()
	case "tcp":
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		if clientEnd, err = net.Dial("tcp", lis.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if proxyEnd, err = lis.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient(clientEnd)
	t.Cleanup(func() { c.Close() })
	return c, relayReordering(t, proxyEnd, toCloud)
}

// TestStreamedPullMatchesStore: a column pull and a row pull of a few
// thousand small rows stream as at least three chunks, with another op's
// response slipped in after the first, and arrive field for field as the
// in-process store answers them (a column row's TupleCT and Token nil),
// for a full pull and for a delta, over net.Pipe and TCP.
func TestStreamedPullMatchesStore(t *testing.T) {
	for _, link := range []string{"pipe", "tcp"} {
		t.Run(link, func(t *testing.T) {
			cl := NewCloud()
			c, p := proxiedClient(t, cl, link)
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			v := c.WithStore("stream")
			enc := cl.stores.GetOrCreate("stream").Enc()
			rng := mrand.New(mrand.NewPCG(41, 1))
			const batch = 12_000 // ≥ 3 chunks of the column, ≥ 5 of the rows
			fillSmallRows(enc, batch, rng)

			type pullFn func(storage.EncVersion, int) ([]storage.EncRow, storage.EncVersion, bool, error)
			pull := func(what string, remote, local pullFn, ver storage.EncVersion, have int) storage.EncVersion {
				t.Helper()
				type result struct {
					rows  []storage.EncRow
					cur   storage.EncVersion
					delta bool
					err   error
				}
				done := make(chan result, 1)
				go func() {
					var r result
					r.rows, r.cur, r.delta, r.err = remote(ver, have)
					done <- r
				}()
				id := <-p.firstChunk
				if err := c.Ping(); err != nil {
					t.Fatalf("%s: ping between chunks: %v", what, err)
				}
				got := <-done
				if got.err != nil {
					t.Fatalf("%s: %v", what, got.err)
				}
				want, cur, delta, _ := local(ver, have)
				if diff := sameRows(got.rows, want); diff != "" {
					t.Fatalf("%s: %s", what, diff)
				}
				if got.cur != cur || got.delta != delta {
					t.Fatalf("%s: version %+v delta %v, want %+v delta %v", what, got.cur, got.delta, cur, delta)
				}
				p.mu.Lock()
				frames, interleaved := p.frames[id], p.interleaved
				p.mu.Unlock()
				if frames < 3 {
					t.Fatalf("%s: streamed as %d frames, want at least 3", what, frames)
				}
				t.Logf("%s: %d rows in %d frames, %d streams interleaved", what, len(want), frames, interleaved)
				return got.cur
			}

			cur := pull("full column", v.AttrColumnSince, enc.AttrColumnSince, storage.EncVersion{}, 0)
			pull("full rows", v.RowsSince, enc.RowsSince, storage.EncVersion{}, 0)
			fillSmallRows(enc, batch, rng)
			pull("column delta", v.AttrColumnSince, enc.AttrColumnSince, cur, batch)
			pull("rows delta", v.RowsSince, enc.RowsSince, cur, batch)
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.interleaved != 4 {
				t.Fatalf("another response passed between the chunks of %d of 4 streams", p.interleaved)
			}
		})
	}
}

// TestColumnPullAllocations: a full column pull over net.Pipe, server and
// client together, allocates little beyond the one row slice the client
// returns and the ciphertext bytes it copies out of the frames. Copying
// the store's rows on the server, or giving each chunk its own row slice
// and merging them, costs a multiple of the row slice and fails this.
func TestColumnPullAllocations(t *testing.T) {
	cl := NewCloud()
	cend, send := net.Pipe()
	go cl.ServeConn(send)
	c := NewClient(cend)
	defer c.Close()
	enc := cl.stores.GetOrCreate("alloc").Enc()
	const rows = 20_000 // cold-scan's column size
	fillSmallRows(enc, rows, mrand.New(mrand.NewPCG(41, 2)))
	v := c.WithStore("alloc")
	pull := func() {
		got, _, _, err := v.AttrColumnSince(storage.EncVersion{}, 0)
		if err != nil || len(got) != rows {
			t.Fatalf("pull = %d rows, %v", len(got), err)
		}
	}
	pull() // the handshake and the connection's buffers

	col, _, _, _ := enc.AttrColumnSince(storage.EncVersion{}, 0)
	frameBytes := len(appendResponse(nil, &response{Rows: col, N: rows}, 0))
	bound := 1.5 * float64(rows*int(unsafe.Sizeof(storage.EncRow{}))+frameBytes)

	const pulls = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < pulls; i++ {
		pull()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / pulls
	t.Logf("%.0f B allocated per pull of %d rows (%d frame bytes); bound %.0f B", per, rows, frameBytes, bound)
	if per > bound {
		t.Fatalf("a column pull allocates %.0f B, above %.0f B = 1.5 × (%d rows × %d B + %d frame bytes)",
			per, bound, rows, unsafe.Sizeof(storage.EncRow{}), frameBytes)
	}
}

// lyingStreams are streamed responses to request ID 2 whose chunks do not
// add up to the total they declare, each with the frame flags to send it
// with.
var lyingStreams = map[string][]struct {
	resp  response
	flags byte
}{
	"total too large": {
		{response{ID: 2, N: 5, Rows: codecRows[:1]}, respFlagPartial},
		{response{ID: 2, N: 5, Rows: codecRows[:1]}, 0},
	},
	"total too small": {
		{response{ID: 2, N: 2, Rows: codecRows[:1]}, respFlagPartial},
		{response{ID: 2, N: 2, Rows: codecRows[:2]}, 0},
	},
	"total 2^40": {
		{response{ID: 2, N: 1 << 40, Rows: codecRows[:1]}, respFlagPartial},
		{response{ID: 2, N: 1 << 40, Rows: codecRows[:1]}, 0},
	},
	"total changed midway": {
		{response{ID: 2, N: 2, Rows: codecRows[:1]}, respFlagPartial},
		{response{ID: 2, N: 3, Rows: codecRows[:1]}, 0},
	},
}

// TestStreamTotalMustMatch: a streamed pull whose chunks bring more or
// fewer rows than their declared total, or change it midway, fails the
// connection as a corrupt frame instead of returning rows.
func TestStreamTotalMustMatch(t *testing.T) {
	for name, frames := range lyingStreams {
		t.Run(name, func(t *testing.T) {
			c, ss := pipeClient(t)
			go func() {
				if !serveHello(ss) {
					return
				}
				if _, err := ss.readRequest(); err != nil {
					return
				}
				for _, f := range frames {
					if ss.writeFrame(&f.resp, f.flags) != nil {
						return
					}
				}
			}()
			rows, _, _, err := c.WithStore("s").AttrColumnSince(storage.EncVersion{}, 0)
			if err == nil {
				t.Fatalf("pull returned %d rows from a lying stream", len(rows))
			}
			if c.Err() == nil || !strings.Contains(c.Err().Error(), errCorruptFrame.Error()) {
				t.Fatalf("connection error %v, want a corrupt frame", c.Err())
			}
		})
	}
}

// streamSeeds are response frame sequences for FuzzReadResponseStream:
// an honest three-chunk stream with another response between its chunks,
// and each of lyingStreams.
func streamSeeds() [][]byte {
	frame := func(buf []byte, resp response, flags byte) []byte {
		var out bytes.Buffer
		_ = finishFrame(&out, appendResponse(beginFrame(nil), &resp, flags))
		return append(buf, out.Bytes()...)
	}
	var honest []byte
	honest = frame(honest, response{ID: 2, N: 3, VerEpoch: 7, VerN: 3, Rows: codecRows[:1]}, respFlagPartial)
	honest = frame(honest, response{ID: 3, VerEpoch: 7, VerN: 3}, 0)
	honest = frame(honest, response{ID: 2, N: 3, VerEpoch: 7, VerN: 3, Rows: codecRows[1:2]}, respFlagPartial)
	honest = frame(honest, response{ID: 2, N: 3, VerEpoch: 7, VerN: 3, Rows: codecRows[:1]}, 0)
	seeds := [][]byte{honest}
	for _, frames := range lyingStreams {
		var s []byte
		for _, f := range frames {
			s = frame(s, f.resp, f.flags)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzReadResponseStream: a connection's response frames, streams
// included, through the client's own reader. Whatever arrives, the
// reader never panics, every stream it completes carries exactly the rows
// it declared, and no stream's row slice, finished or not, holds more
// rows than the bytes delivered (a row costs minRowBytes), so a lying
// total cannot drive allocation.
func FuzzReadResponseStream(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Client{br: bufio.NewReader(bytes.NewReader(data))}
		open := make(map[uint64]*response)
		for {
			var streaming []uint64
			for id := range open {
				streaming = append(streaming, id)
			}
			resp, err := c.readResponse(open)
			if err != nil {
				return
			}
			for _, s := range open {
				if cap(s.Rows) > len(data) {
					t.Fatalf("open stream holds room for %d rows after %d bytes", cap(s.Rows), len(data))
				}
			}
			if resp == nil {
				continue
			}
			if cap(resp.Rows) > len(data) {
				t.Fatalf("response holds room for %d rows after %d bytes", cap(resp.Rows), len(data))
			}
			for _, id := range streaming {
				if id == resp.ID && len(resp.Rows) != resp.N {
					t.Fatalf("stream %d completed with %d rows, declared %d", id, len(resp.Rows), resp.N)
				}
			}
		}
	})
}
