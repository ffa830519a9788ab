package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/relation"
	"repro/internal/storage"
)

// This file is the wire codec: one binary encoding for every request and
// every response, whatever the op. It encodes the envelope's fields, not
// its ops, so adding an op never touches it; adding a field adds one line
// to request.fields or response.fields. Compared with gob (which re-walks
// struct types reflectively and allocates per field — ~290k allocs per
// 256-query remote batch when it carried the hot ops) a frame costs a
// handful of appends to build and one linear scan, plus a single arena
// allocation, to decode.
//
// Request body (inside one frame):
//
//	op uint8 | ID uvarint | len(store) uvarint | store | fields
//
// Response body:
//
//	ID uvarint | flags uint8 | fields
//
// fields is every non-zero field of the envelope as `tag uvarint | value`,
// tags strictly ascending in declaration order (the walk order of
// request.fields/response.fields, starting at 1). An unknown, repeated or
// out-of-order tag is a corrupt frame, and so is a request for an op
// outside the op table, so every envelope has exactly one encoding.
//
// Values: every integer field is a zigzag varint, so the negative
// sentinels ride as they are (Have -1 = resend everything, Addr -1 = empty
// batch, StoreInfo.PlainTuples -1 = no relation); a bool field is a tag
// with no value. Byte strings are nil-aware (0 encodes nil, n+1 encodes n
// bytes): the encrypted store indexes a row's token only when it is
// non-nil, so the distinction must survive the wire. Values and tuples
// reuse the relation package's binary codec. Lists are a uvarint count
// then the elements; Schema, StoreStats, StoreInfo, rows and uploads are
// positional sub-records.
//
// flags bit 0 marks a partial chunk of a streamed row response — the
// reader accumulates chunks by ID until a frame without the bit arrives
// (see serverStream.writeChunkedRows). An error response is just a
// response whose Err field is set.
const respFlagPartial byte = 1 << 0

var errCorruptFrame = errors.New("wire: corrupt frame")

// fields walks the request's fields in tag order.
func (q *request) fields(c *codec) {
	if c.field(q.Version != 0) {
		c.int(&q.Version)
	}
	if c.field(q.AdminToken != nil) {
		c.bytes(&q.AdminToken)
	}
	if c.field(q.Schema.Name != "" || len(q.Schema.Columns) > 0) {
		c.schema(&q.Schema)
	}
	if c.field(len(q.Tuples) > 0) {
		list(c, &q.Tuples, 2, c.tuple)
	}
	if c.field(q.Attr != "") {
		c.str(&q.Attr)
	}
	if c.field(len(q.Values) > 0) {
		list(c, &q.Values, 1, c.value)
	}
	if c.field(q.Tuple.ID != 0 || q.Tuple.Values != nil) {
		c.tuple(&q.Tuple)
	}
	if c.field(q.Token != nil) {
		c.bytes(&q.Token)
	}
	if c.field(len(q.Batch) > 0) {
		list(c, &q.Batch, 3, c.upload)
	}
	if c.field(len(q.AddrBatches) > 0) {
		list(c, &q.AddrBatches, 1, c.addrs)
	}
	if c.field(q.CondEpoch != 0) {
		c.uint(&q.CondEpoch)
	}
	if c.field(q.CondN != 0) {
		c.uint(&q.CondN)
	}
	if c.field(q.Have != 0) {
		c.int(&q.Have)
	}
	if c.field(q.Workers != 0) {
		c.int(&q.Workers)
	}
	if c.field(q.RingToken != nil) {
		c.bytes(&q.RingToken)
	}
	if c.field(q.Blob != nil) {
		c.bytes(&q.Blob)
	}
}

// fields walks the response's fields in tag order.
func (p *response) fields(c *codec) {
	if c.field(p.Err != "") {
		c.str(&p.Err)
	}
	if c.field(p.Addr != 0) {
		c.int(&p.Addr)
	}
	if c.field(p.N != 0) {
		c.int(&p.N)
	}
	if c.field(len(p.Tuples) > 0) {
		list(c, &p.Tuples, 2, c.tuple)
	}
	if c.field(len(p.Rows) > 0) {
		c.rows(&p.Rows)
	}
	if c.field(len(p.Addrs) > 0) {
		list(c, &p.Addrs, 1, c.int)
	}
	if c.field(len(p.RowBatches) > 0) {
		list(c, &p.RowBatches, 1, c.rows)
	}
	if c.field(p.Version != 0) {
		c.int(&p.Version)
	}
	if c.field(len(p.Names) > 0) {
		list(c, &p.Names, 1, c.str)
	}
	if c.field(p.Stats != StoreStats{}) {
		c.stats(&p.Stats)
	}
	if c.field(p.VerEpoch != 0) {
		c.uint(&p.VerEpoch)
	}
	if c.field(p.VerN != 0) {
		c.uint(&p.VerN)
	}
	if c.field(p.Delta) && !c.enc {
		p.Delta = true
	}
	if c.field(p.Blob != nil) {
		c.bytes(&p.Blob)
	}
	if c.field(p.Info != StoreInfo{}) {
		c.info(&p.Info)
	}
}

// appendRequest appends the encoding of req.
func appendRequest(buf []byte, req *request) []byte {
	c := codec{enc: true, buf: append(buf, byte(req.Op))}
	c.buf = binary.AppendUvarint(c.buf, req.ID)
	c.str(&req.Store)
	req.fields(&c)
	return c.buf
}

// appendResponse appends the encoding of resp; flags is the flags byte
// (respFlagPartial for a streamed chunk, else 0).
func appendResponse(buf []byte, resp *response, flags byte) []byte {
	c := codec{enc: true, buf: append(binary.AppendUvarint(buf, resp.ID), flags)}
	resp.fields(&c)
	return c.buf
}

// decodeRequest parses a request frame body. Every byte field is copied
// out of the body (which aliases the reader's reused scratch); malformed
// input returns an error, never panics, and cannot allocate more than a
// small multiple of the body's length.
func decodeRequest(body []byte) (*request, error) {
	c := codec{b: body, a: arena{size: len(body)}}
	req := &request{Op: op(c.byte())}
	if c.err == nil && !req.Op.known() {
		return nil, fmt.Errorf("wire: op %d is not in the op table", req.Op)
	}
	req.ID = c.uvarint()
	c.str(&req.Store)
	req.fields(&c)
	if err := c.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeResponse parses a response frame body; partial reports whether
// this is a non-final chunk of a streamed row response. The same safety
// contract as decodeRequest applies.
func decodeResponse(body []byte) (resp *response, partial bool, err error) {
	c := codec{b: body, a: arena{size: len(body)}}
	resp = &response{ID: c.uvarint()}
	flags := c.byte()
	if flags&^respFlagPartial != 0 {
		c.fail()
	}
	resp.fields(&c)
	if err := c.done(); err != nil {
		return nil, false, err
	}
	return resp, flags&respFlagPartial != 0, nil
}

// --- the codec -------------------------------------------------------------

// codec runs one envelope walk in one direction: appending to buf (enc)
// or reading from b. Each value method below serves both directions, so
// a field's encoding and its decoding are one line and cannot drift
// apart. Decoding keeps the first error and turns every later read into
// a zero-value no-op, so a walk runs straight-line and checks once at the
// end.
type codec struct {
	enc bool
	buf []byte

	b    []byte
	err  error
	a    arena
	slab []relation.Value // tuple Values backing for the whole frame

	tag  uint64 // the field being visited
	next uint64 // decode: the tag read off the wire and not yet matched (0 = none)
}

// field advances the walk to the next tag and reports whether that field
// is on the wire: when encoding, whether it is non-zero (its tag is then
// written); when decoding, whether the next tag in the body is this one.
func (c *codec) field(nonZero bool) bool {
	c.tag++
	if c.enc {
		if nonZero {
			c.buf = binary.AppendUvarint(c.buf, c.tag)
		}
		return nonZero
	}
	if c.next == 0 && len(c.b) > 0 && c.err == nil {
		if c.next = c.uvarint(); c.next == 0 {
			c.fail()
		}
	}
	switch {
	case c.next == c.tag:
		c.next = 0
		return true
	case c.next != 0 && c.next < c.tag:
		c.fail() // repeated or out of order: the walk has passed it
	}
	return false
}

// done ends a decoding walk: a tag the walk never reached is unknown.
func (c *codec) done() error {
	switch {
	case c.err != nil:
		return c.err
	case c.next != 0:
		return fmt.Errorf("wire: unknown field tag %d", c.next)
	case len(c.b) != 0:
		return fmt.Errorf("wire: %d trailing bytes after the last field", len(c.b))
	}
	return nil
}

func (c *codec) fail() {
	if c.err == nil {
		c.err = errCorruptFrame
	}
}

func (c *codec) byte() byte {
	if c.err != nil || len(c.b) == 0 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *codec) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, w := binary.Uvarint(c.b)
	if w <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[w:]
	return v
}

// count reads a list length and bounds it by the bytes left (every element
// costs at least minBytes), so a lying count cannot force a huge
// allocation.
func (c *codec) count(minBytes int) int {
	n := c.uvarint()
	if c.err == nil && n > uint64(len(c.b))/uint64(minBytes) {
		c.fail()
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

// take reads n raw bytes, aliasing the body.
func (c *codec) take(n uint64) []byte {
	if c.err == nil && n > uint64(len(c.b)) {
		c.fail()
	}
	if c.err != nil {
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// list walks a list: its count, then each element through elem. A
// decoded empty list is nil.
func list[T any](c *codec, p *[]T, minBytes int, elem func(*T)) {
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
		for i := range *p {
			elem(&(*p)[i])
		}
		return
	}
	n := c.count(minBytes)
	if n == 0 {
		return
	}
	s := make([]T, n)
	for i := 0; i < n && c.err == nil; i++ {
		elem(&s[i])
	}
	*p = s
}

// varint walks one signed varint: it appends v, or returns the decoded
// value. Like every value method it never writes through its argument
// when encoding — the envelope's slices may be shared with the store.
func (c *codec) varint(v int64) int64 {
	if c.enc {
		c.buf = binary.AppendVarint(c.buf, v)
		return v
	}
	if c.err != nil {
		return 0
	}
	v, w := binary.Varint(c.b)
	if w <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[w:]
	return v
}

func (c *codec) int(p *int) {
	if v := c.varint(int64(*p)); !c.enc {
		*p = int(v)
	}
}

// uint carries a uint64 (versions, epochs) through the signed varint.
func (c *codec) uint(p *uint64) {
	if v := c.varint(int64(*p)); !c.enc {
		*p = uint64(v)
	}
}

func (c *codec) bool(p *bool) {
	var v int64
	if *p {
		v = 1
	}
	if v = c.varint(v); !c.enc {
		*p = v == 1
		if v != 0 && v != 1 {
			c.fail()
		}
	}
}

// bytes walks a nil-aware byte string (0 = nil, n+1 = n bytes); decoded
// bytes are arena copies.
func (c *codec) bytes(p *[]byte) {
	switch {
	case c.enc && *p == nil:
		c.buf = append(c.buf, 0)
	case c.enc:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p))+1)
		c.buf = append(c.buf, *p...)
	default:
		if n := c.uvarint(); n > 0 {
			if raw := c.take(n - 1); c.err == nil {
				*p = c.a.copy(raw)
			}
		}
	}
}

func (c *codec) str(p *string) {
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
		c.buf = append(c.buf, *p...)
		return
	}
	*p = string(c.take(c.uvarint()))
}

func (c *codec) value(p *relation.Value) {
	if c.enc {
		c.buf = p.AppendEncode(c.buf)
		return
	}
	if c.err != nil {
		return
	}
	v, rest, err := relation.DecodeValue(c.b)
	if err != nil {
		c.err = err
		return
	}
	*p, c.b = v, rest
}

// tuple walks one tuple, drawing its Values backing from the frame's slab
// so a frame full of search results costs O(log n) value allocations
// instead of one per tuple — the single largest allocation source in the
// remote query profile before slabbing.
func (c *codec) tuple(p *relation.Tuple) {
	if c.enc {
		c.buf = relation.AppendEncodeTuple(c.buf, *p)
		return
	}
	if c.err != nil {
		return
	}
	t, rest, err := relation.DecodeTupleSlab(c.b, &c.slab)
	if err != nil {
		c.err = err
		return
	}
	*p, c.b = t, rest
}

func (c *codec) addrs(p *[]int) { list(c, p, 1, c.int) }

func (c *codec) upload(u *EncUpload) {
	c.bytes(&u.TupleCT)
	c.bytes(&u.AttrCT)
	c.bytes(&u.Token)
}

// rows walks a row list; a row is its address plus three length bytes,
// minimum.
func (c *codec) rows(p *[]storage.EncRow) {
	list(c, p, 4, func(r *storage.EncRow) {
		c.int(&r.Addr)
		c.bytes(&r.TupleCT)
		c.bytes(&r.AttrCT)
		c.bytes(&r.Token)
	})
}

func (c *codec) schema(s *relation.Schema) {
	c.str(&s.Name)
	list(c, &s.Columns, 2, func(col *relation.Column) {
		c.str(&col.Name)
		if k := c.varint(int64(col.Kind)); !c.enc {
			col.Kind = relation.Kind(k)
		}
	})
}

func (c *codec) stats(s *StoreStats) {
	c.uint(&s.Ops)
	c.int(&s.PlainTuples)
	c.int(&s.EncRows)
	c.uint(&s.CondHits)
	c.int(&s.Workers)
}

func (c *codec) info(i *StoreInfo) {
	c.bool(&i.Exists)
	c.int(&i.PlainTuples)
	c.int(&i.EncRows)
	c.uint(&i.VerEpoch)
	c.uint(&i.VerN)
	c.bool(&i.Claimed)
}

// arena hands out copies of decoded byte fields from one backing
// allocation sized to the frame body. The copies are mandatory — the
// frame scratch is reused and both the encrypted store (server side) and
// the technique (client side) retain the slices they are handed — and one
// allocation per frame beats one per field. Allocation is lazy so frames
// without byte fields (fetches, lens) cost nothing.
type arena struct {
	buf  []byte
	size int // backing allocation size, set from the frame body length
}

func (a *arena) copy(p []byte) []byte {
	if len(p) == 0 {
		return []byte{}
	}
	if cap(a.buf)-len(a.buf) < len(p) {
		// First use — or, defensively, overflow (impossible when sized
		// from the frame body, since decoded fields are drawn from it).
		a.buf = make([]byte, 0, max(a.size, len(p)))
	}
	n := len(a.buf)
	a.buf = a.buf[:n+len(p)]
	out := a.buf[n : n+len(p) : n+len(p)]
	copy(out, p)
	return out
}
