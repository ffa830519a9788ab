package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// The fuzz targets hold the codec to its safety contract on hostile
// input: malformed frames return errors — they never panic, and a lying
// length or count cannot force an allocation beyond a small multiple of
// the input's size. Plain `go test` runs the seed corpus below on every
// build; `make fuzz` (and CI's fuzz smoke) runs each target's mutation
// engine for a bounded time.

// seedRequests is a spread of valid request encodings whose mutations
// explore the decoder's field structure.
func seedRequests() [][]byte {
	reqs := []*request{
		{Op: opPing, ID: 1},
		{Op: opEncLen, ID: 2, Store: "tenant"},
		{Op: opPlainSearch, ID: 3, Values: []relation.Value{relation.Int(7), relation.Str("q")}},
		{Op: opPlainSearchRange, ID: 4, Lo: relation.Int(-5), Hi: relation.Int(5)},
		{Op: opPlainInsert, ID: 5, AdminToken: []byte("o"), Tuple: relation.Tuple{ID: 1, Values: []relation.Value{relation.Int(9)}}},
		{Op: opEncAddBatch, ID: 7, AdminToken: []byte("o"), Batch: []EncUpload{{TupleCT: []byte("r")}}},
		{Op: opEncFetch, ID: 8, Addrs: []int{0, 1, 2}},
		{Op: opEncFetchBatch, ID: 9, AddrBatches: [][]int{{1}, {2, 3}}},
		{Op: opEncLookupToken, ID: 10, Token: []byte("needle")},
	}
	out := make([][]byte, 0, len(reqs))
	for _, r := range reqs {
		out = append(out, appendBinRequest(nil, r))
	}
	// The retired one-row upload, as its frames used to look (op 5, ID 6,
	// default store, no owner token, "ct"/"a"/"t"): the slot is reserved,
	// so the decoder must refuse it however the rest of the body mutates.
	out = append(out, []byte{5, 6, 0, 0, 3, 'c', 't', 2, 'a', 2, 't'})
	return out
}

// seedResponses mirrors seedRequests for the response decoder.
func seedResponses() [][]byte {
	rows := []storage.EncRow{{Addr: 1, TupleCT: []byte("ct"), AttrCT: []byte("a"), Token: []byte("t")}}
	type rc struct {
		o    op
		resp *response
		x    byte
	}
	cases := []rc{
		{opPing, &response{ID: 1}, 0},
		{opPlainSearch, &response{ID: 2, Tuples: []relation.Tuple{{ID: 1, Values: []relation.Value{relation.Int(3)}}}}, 0},
		{op(5), &response{ID: 3}, 0}, // the reserved slot: refused, like the request
		{opEncAddBatch, &response{ID: 4, Addr: 9, N: 2}, 0},
		{opEncLen, &response{ID: 5, N: 44}, 0},
		{opEncLookupToken, &response{ID: 6, Addrs: []int{1, 2}}, 0},
		{opEncFetch, &response{ID: 7, Rows: rows}, 0},
		{opEncRows, &response{ID: 8, Rows: rows}, respFlagPartial},
		{opEncLen, &response{ID: 9, Err: "wire: boom"}, 0},
	}
	out := make([][]byte, 0, len(cases))
	for _, c := range cases {
		out = append(out, appendBinResponse(nil, c.o, c.resp, c.x))
	}
	return out
}

// FuzzDecodeBinRequest: arbitrary bytes must decode to either a request
// or an error — no panics, no runaway allocation (the bounded-count
// checks are what this exercises under mutation).
func FuzzDecodeBinRequest(f *testing.F) {
	for _, seed := range seedRequests() {
		f.Add(seed)
		if len(seed) > 2 {
			f.Add(seed[:len(seed)/2]) // truncated
			flipped := append([]byte{}, seed...)
			flipped[len(flipped)/2] ^= 0x80 // bit-flipped
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add(binary.AppendUvarint([]byte{byte(opEncFetch), 1, 0}, 1<<40)) // lying count
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeBinRequest(body)
		if err == nil && req == nil {
			t.Fatal("nil request with nil error")
		}
		if err == nil {
			if !binaryOp(req.Op) {
				t.Fatalf("decoded a request for op %d, which is not a binary-codec op", req.Op)
			}
			// A frame that decodes must survive a re-encode/re-decode cycle
			// unchanged (byte equality is too strong: varints admit
			// non-minimal encodings the decoder tolerates).
			again, err := decodeBinRequest(appendBinRequest(nil, req))
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("unstable round trip:\n got %+v\nwant %+v", again, req)
			}
		}
	})
}

// FuzzDecodeBinResponse: the response decoder under the same contract.
func FuzzDecodeBinResponse(f *testing.F) {
	for _, seed := range seedResponses() {
		f.Add(seed)
		if len(seed) > 2 {
			f.Add(seed[:len(seed)-1])
			flipped := append([]byte{}, seed...)
			flipped[1] ^= 0xff
			f.Add(flipped)
		}
	}
	f.Add([]byte{byte(opEncLen), 1, respFlagErr}) // error flag, no message
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, partial, err := decodeBinResponse(body)
		if err == nil && resp == nil {
			t.Fatal("nil response with nil error")
		}
		if err == nil {
			var extra byte
			if partial {
				extra = respFlagPartial
			}
			o := op(body[0])
			if !binaryOp(o) {
				t.Fatalf("decoded a response for op %d, which is not a binary-codec op", o)
			}
			again, partial2, err := decodeBinResponse(appendBinResponse(nil, o, resp, extra))
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if partial2 != partial || !reflect.DeepEqual(again, resp) {
				t.Fatalf("unstable round trip:\n got %+v (partial %v)\nwant %+v (partial %v)", again, partial2, resp, partial)
			}
		}
	})
}

// FuzzReadFrame: the frame reader must never panic and never allocate
// more than the bytes the peer actually delivered plus one growth step —
// a lying length prefix starves against io.ReadFull instead of
// ballooning memory.
func FuzzReadFrame(f *testing.F) {
	frame := func(tag byte, body []byte) []byte {
		var buf bytes.Buffer
		b := beginFrame(nil, tag)
		b = append(b, body...)
		if err := finishFrame(&buf, b); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(tagBinReq, seedRequests()[0]))
	f.Add(frame(tagGob, []byte("not actually gob")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01}) // giant length, no body
	f.Add([]byte{0, 0, 0, 0})                   // length below the tag byte
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var scratch []byte
		r := bytes.NewReader(stream)
		for {
			_, body, err := readFrame(r, &scratch)
			if err != nil {
				return // every malformed stream must end in an error, not a panic
			}
			if len(body) > len(stream) {
				t.Fatalf("frame body of %d bytes from a %d-byte stream", len(body), len(stream))
			}
		}
	})
}
