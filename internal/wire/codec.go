package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/relation"
	"repro/internal/storage"
)

// This file is the hand-rolled binary codec for the hot data-plane ops —
// the encode/decode work that dominated the remote path under gob (gob
// re-walks struct types reflectively and allocates per field; the remote
// benchmark spent ~290k allocs per 256-query batch on it). The layouts
// are positional, so a frame costs a handful of appends to build and one
// linear scan (plus a single arena allocation) to decode.
//
// Request body (inside a tagBinReq frame):
//
//	op uint8 | ID uvarint | len(store) uvarint | store | op-specific fields
//
// Response body (inside a tagBinResp frame):
//
//	op uint8 | ID uvarint | flags uint8 | error string OR op-specific fields
//
// The response carries the op because, unlike gob's self-describing
// envelope, the payload shape is implicit in it. flags bit 0 marks an
// error (the body is then just the message); bit 1 marks a partial chunk
// of a streamed row response — the reader accumulates chunks by ID until
// a frame without the bit arrives (see serverStream.writeChunkedRows).
//
// Byte-string fields are nil-aware (0 encodes nil, n+1 encodes n bytes):
// the encrypted store indexes a row's token only when it is non-nil, so
// the distinction must survive the wire. Addresses travel as zigzag
// varints; values and tuples reuse the relation package's binary codec.
const (
	respFlagErr     byte = 1 << 0
	respFlagPartial byte = 1 << 1
)

// binaryOp reports whether an op's requests and responses travel in the
// binary codec once a connection is framed. Hot data-plane ops only:
// everything else (plain load, hello, admin) keeps gob's self-describing
// flexibility at negligible cost.
func binaryOp(o op) bool {
	switch o {
	case opPing, opPlainSearch, opPlainSearchRange, opPlainInsert,
		opEncAddBatch, opEncLen, opEncAttrColumn, opEncFetch,
		opEncLookupToken, opEncRows, opEncFetchBatch,
		opEncVersion, opEncAttrColumnIf, opEncRowsIf:
		return true
	}
	return false
}

// --- encode --------------------------------------------------------------

// appendHave appends a mutation op's length CAS shifted by one, so the
// unconditional sentinel (-1, and any other negative) rides the wire as a
// plain zero uvarint.
func appendHave(buf []byte, have int) []byte {
	if have < 0 {
		return append(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(have)+1)
}

// appendBytes appends a nil-aware length-prefixed byte string.
func appendBytes(buf, p []byte) []byte {
	if p == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p))+1)
	return append(buf, p...)
}

func appendAddrs(buf []byte, addrs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.AppendVarint(buf, int64(a))
	}
	return buf
}

func appendRows(buf []byte, rows []storage.EncRow) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for i := range rows {
		row := &rows[i]
		buf = binary.AppendVarint(buf, int64(row.Addr))
		buf = appendBytes(buf, row.TupleCT)
		buf = appendBytes(buf, row.AttrCT)
		buf = appendBytes(buf, row.Token)
	}
	return buf
}

// appendBinRequest appends the binary encoding of req; req.Op must
// satisfy binaryOp.
func appendBinRequest(buf []byte, req *request) []byte {
	buf = append(buf, byte(req.Op))
	buf = binary.AppendUvarint(buf, req.ID)
	buf = binary.AppendUvarint(buf, uint64(len(req.Store)))
	buf = append(buf, req.Store...)
	switch req.Op {
	case opPing, opEncLen, opEncAttrColumn, opEncRows, opEncVersion:
		// No payload.
	case opEncAttrColumnIf, opEncRowsIf:
		buf = binary.AppendUvarint(buf, req.CondEpoch)
		buf = binary.AppendUvarint(buf, req.CondN)
		buf = binary.AppendUvarint(buf, uint64(req.Have))
	case opPlainSearch:
		buf = binary.AppendUvarint(buf, uint64(len(req.Values)))
		for _, v := range req.Values {
			buf = v.AppendEncode(buf)
		}
	case opPlainSearchRange:
		buf = req.Lo.AppendEncode(buf)
		buf = req.Hi.AppendEncode(buf)
	case opPlainInsert:
		buf = appendBytes(buf, req.AdminToken)
		buf = appendHave(buf, req.Have)
		buf = relation.AppendEncodeTuple(buf, req.Tuple)
	case opEncAddBatch:
		buf = appendBytes(buf, req.AdminToken)
		buf = appendHave(buf, req.Have)
		buf = binary.AppendUvarint(buf, uint64(len(req.Batch)))
		for i := range req.Batch {
			u := &req.Batch[i]
			buf = appendBytes(buf, u.TupleCT)
			buf = appendBytes(buf, u.AttrCT)
			buf = appendBytes(buf, u.Token)
		}
	case opEncFetch:
		buf = appendAddrs(buf, req.Addrs)
	case opEncFetchBatch:
		buf = binary.AppendUvarint(buf, uint64(len(req.AddrBatches)))
		for _, addrs := range req.AddrBatches {
			buf = appendAddrs(buf, addrs)
		}
	case opEncLookupToken:
		buf = appendBytes(buf, req.Token)
	}
	return buf
}

// appendBinResponse appends the binary encoding of resp to an op-o
// request; extra is OR-ed into the flags byte (respFlagPartial for
// streamed chunks).
func appendBinResponse(buf []byte, o op, resp *response, extra byte) []byte {
	buf = append(buf, byte(o))
	buf = binary.AppendUvarint(buf, resp.ID)
	if resp.Err != "" {
		buf = append(buf, extra|respFlagErr)
		buf = binary.AppendUvarint(buf, uint64(len(resp.Err)))
		return append(buf, resp.Err...)
	}
	buf = append(buf, extra)
	switch o {
	case opPing, opPlainInsert:
		// No payload.
	case opPlainSearch, opPlainSearchRange:
		buf = binary.AppendUvarint(buf, uint64(len(resp.Tuples)))
		for _, t := range resp.Tuples {
			buf = relation.AppendEncodeTuple(buf, t)
		}
	case opEncAddBatch:
		buf = binary.AppendVarint(buf, int64(resp.Addr))
		buf = binary.AppendUvarint(buf, uint64(resp.N))
	case opEncLen:
		buf = binary.AppendUvarint(buf, uint64(resp.N))
	case opEncLookupToken:
		buf = appendAddrs(buf, resp.Addrs)
	case opEncAttrColumn, opEncRows, opEncFetch:
		buf = appendRows(buf, resp.Rows)
	case opEncVersion:
		buf = binary.AppendUvarint(buf, resp.VerEpoch)
		buf = binary.AppendUvarint(buf, resp.VerN)
	case opEncAttrColumnIf, opEncRowsIf:
		buf = binary.AppendUvarint(buf, resp.VerEpoch)
		buf = binary.AppendUvarint(buf, resp.VerN)
		var d byte
		if resp.Delta {
			d = 1
		}
		buf = append(buf, d)
		buf = appendRows(buf, resp.Rows)
	case opEncFetchBatch:
		buf = binary.AppendUvarint(buf, uint64(len(resp.RowBatches)))
		for _, rows := range resp.RowBatches {
			buf = appendRows(buf, rows)
		}
	}
	return buf
}

// --- decode --------------------------------------------------------------

var errCorruptFrame = errors.New("wire: corrupt binary frame")

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

// binReader is a cursor over one binary frame body. The first decode
// error sticks and every later read returns zero values, so decode code
// runs straight-line and checks once at the end.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errCorruptFrame
	}
}

func (r *binReader) byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[w:]
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Varint(r.b)
	if w <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[w:]
	return v
}

// have reads a mutation op's length CAS: zero on the wire is the
// unconditional sentinel (-1), anything else is the expected length
// shifted by one (see appendHave).
func (r *binReader) have() int {
	h := r.uvarint()
	switch {
	case h == 0:
		return -1
	case h-1 <= uint64(int(^uint(0)>>1)):
		return int(h - 1)
	default:
		r.fail()
		return -1
	}
}

// count reads a collection length and bounds it by the bytes left (every
// element costs at least minBytes), so a lying count cannot force a huge
// allocation.
func (r *binReader) count(minBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b))/uint64(minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

// bytes reads a nil-aware byte string into the arena.
func (r *binReader) bytes(a *arena) []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := a.copy(r.b[:n])
	r.b = r.b[n:]
	return out
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *binReader) value() relation.Value {
	if r.err != nil {
		return relation.Value{}
	}
	v, rest, err := relation.DecodeValue(r.b)
	if err != nil {
		r.err = err
		return relation.Value{}
	}
	r.b = rest
	return v
}

// tuple decodes one tuple, drawing its Values backing from slab so a
// frame full of search results costs O(log n) value allocations instead
// of one per tuple — the single largest allocation source in the remote
// query profile before slabbing.
func (r *binReader) tuple(slab *[]relation.Value) relation.Tuple {
	if r.err != nil {
		return relation.Tuple{}
	}
	t, rest, err := relation.DecodeTupleSlab(r.b, slab)
	if err != nil {
		r.err = err
		return relation.Tuple{}
	}
	r.b = rest
	return t
}

func (r *binReader) addrs() []int {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int(r.varint()))
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *binReader) rows(a *arena) []storage.EncRow {
	n := r.count(4) // addr varint plus three length bytes, minimum
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]storage.EncRow, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, storage.EncRow{
			Addr:    int(r.varint()),
			TupleCT: r.bytes(a),
			AttrCT:  r.bytes(a),
			Token:   r.bytes(a),
		})
	}
	if r.err != nil {
		return nil
	}
	return out
}

// decodeBinRequest parses a tagBinReq frame body. Every byte field is
// copied out of the body (which aliases the reader's reused scratch);
// malformed input returns an error, never panics, and cannot allocate
// more than a small multiple of the body's length.
func decodeBinRequest(body []byte) (*request, error) {
	r := binReader{b: body}
	req := &request{Op: op(r.byte())}
	if r.err == nil && !binaryOp(req.Op) {
		return nil, fmt.Errorf("wire: op %d is not a binary-codec op", req.Op)
	}
	req.ID = r.uvarint()
	req.Store = r.str()
	a := arena{size: len(body)}
	switch req.Op {
	case opPing, opEncLen, opEncAttrColumn, opEncRows, opEncVersion:
		// No payload.
	case opEncAttrColumnIf, opEncRowsIf:
		req.CondEpoch = r.uvarint()
		req.CondN = r.uvarint()
		if have := r.uvarint(); have <= uint64(int(^uint(0)>>1)) {
			req.Have = int(have)
		} else {
			r.fail()
		}
	case opPlainSearch:
		if n := r.count(1); n > 0 {
			req.Values = make([]relation.Value, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				req.Values = append(req.Values, r.value())
			}
		}
	case opPlainSearchRange:
		req.Lo = r.value()
		req.Hi = r.value()
	case opPlainInsert:
		req.AdminToken = r.bytes(&a)
		req.Have = r.have()
		var slab []relation.Value
		req.Tuple = r.tuple(&slab)
	case opEncAddBatch:
		req.AdminToken = r.bytes(&a)
		req.Have = r.have()
		if n := r.count(3); n > 0 {
			req.Batch = make([]EncUpload, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				req.Batch = append(req.Batch, EncUpload{
					TupleCT: r.bytes(&a), AttrCT: r.bytes(&a), Token: r.bytes(&a),
				})
			}
		}
	case opEncFetch:
		req.Addrs = r.addrs()
	case opEncFetchBatch:
		if n := r.count(1); n > 0 {
			req.AddrBatches = make([][]int, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				req.AddrBatches = append(req.AddrBatches, r.addrs())
			}
		}
	case opEncLookupToken:
		req.Token = r.bytes(&a)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after binary request", len(r.b))
	}
	return req, nil
}

// decodeBinResponse parses a tagBinResp frame body; partial reports
// whether this is a non-final chunk of a streamed row response. The same
// safety contract as decodeBinRequest applies.
func decodeBinResponse(body []byte) (resp *response, partial bool, err error) {
	r := binReader{b: body}
	o := op(r.byte())
	if r.err == nil && !binaryOp(o) {
		return nil, false, fmt.Errorf("wire: response op %d is not a binary-codec op", o)
	}
	resp = &response{ID: r.uvarint()}
	flags := r.byte()
	partial = flags&respFlagPartial != 0
	a := arena{size: len(body)}
	if flags&respFlagErr != 0 {
		resp.Err = r.str()
		if r.err == nil && resp.Err == "" {
			r.fail() // an error flag with no message is not a valid frame
		}
	} else {
		switch o {
		case opPing, opPlainInsert:
			// No payload.
		case opPlainSearch, opPlainSearchRange:
			if n := r.count(2); n > 0 { // uvarint ID plus uvarint arity, minimum
				resp.Tuples = make([]relation.Tuple, 0, n)
				var slab []relation.Value
				for i := 0; i < n && r.err == nil; i++ {
					resp.Tuples = append(resp.Tuples, r.tuple(&slab))
				}
			}
		case opEncAddBatch:
			resp.Addr = int(r.varint())
			resp.N = int(r.uvarint())
		case opEncLen:
			resp.N = int(r.uvarint())
		case opEncLookupToken:
			resp.Addrs = r.addrs()
		case opEncAttrColumn, opEncRows, opEncFetch:
			resp.Rows = r.rows(&a)
		case opEncVersion:
			resp.VerEpoch = r.uvarint()
			resp.VerN = r.uvarint()
		case opEncAttrColumnIf, opEncRowsIf:
			resp.VerEpoch = r.uvarint()
			resp.VerN = r.uvarint()
			switch r.byte() {
			case 0:
			case 1:
				resp.Delta = true
			default:
				r.fail() // non-canonical delta byte
			}
			resp.Rows = r.rows(&a)
		case opEncFetchBatch:
			if n := r.count(1); n > 0 {
				resp.RowBatches = make([][]storage.EncRow, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					resp.RowBatches = append(resp.RowBatches, r.rows(&a))
				}
			}
		}
	}
	if r.err != nil {
		return nil, false, r.err
	}
	if len(r.b) != 0 {
		return nil, false, fmt.Errorf("wire: %d trailing bytes after binary response", len(r.b))
	}
	return resp, partial, nil
}
