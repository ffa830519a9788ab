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

// seedRequests is a spread of request encodings — one per op in the
// table, plus two frames for ops outside it — whose mutations explore the
// decoder's field structure.
func seedRequests() [][]byte {
	batch := []EncUpload{{TupleCT: []byte("r")}}
	reqs := []*request{
		{Op: opPing, ID: 1},
		{Op: opStoreInfo, ID: 2, Store: "tenant"}, // a view's row-count probe
		{Op: opPlainSearch, ID: 3, Values: []relation.Value{relation.Int(7), relation.Str("q")}},
		{Op: opPlainSearch, ID: 4, Store: "s", Values: []relation.Value{relation.Int(-5), relation.Str(""), relation.Int(5)}},
		{Op: opPlainSearch, ID: 29, Values: []relation.Value{relation.Int(7)}, CondEpoch: 1 << 40, Have: 12}, // a bin revalidation
		{Op: opPlainInsert, ID: 5, AdminToken: []byte("o"), Tuple: relation.Tuple{ID: 1, Values: []relation.Value{relation.Int(9)}}},
		{Op: opEncAddBatch, ID: 7, AdminToken: []byte("o"), Batch: batch, Have: 4},
		{Op: opEncFetchBatch, ID: 8, AddrBatches: [][]int{{0, 1, 2}}}, // a fetch: a batch of one list
		{Op: opEncFetchBatch, ID: 9, AddrBatches: [][]int{{1}, {2, 3}}},
		{Op: opEncLookupToken, ID: 10, Token: []byte("needle")},
		{Op: opEncAttrColumnIf, ID: 11, CondEpoch: 3, Have: -1},
		{Op: opEncRowsIf, ID: 25, CondEpoch: 3, Have: 1},
		{Op: opEncAttrColumnIf, ID: 26},       // a full column pull: the zero version
		{Op: opEncRowsIf, ID: 27, Store: "s"}, // a full row pull: the zero version
		{Op: opEncVersion, ID: 28},
		{Op: opPlainLoad, ID: 12, AdminToken: []byte("o"), Attr: "K",
			Schema: relation.MustSchema("T", relation.Column{Name: "K", Kind: relation.KindInt}),
			Tuples: []relation.Tuple{{ID: 1, Values: []relation.Value{relation.Int(9)}}}},
		{Op: opHello, ID: 13, Version: ProtocolVersion},
		{Op: opAdminList, ID: 14},
		{Op: opAdminStats, ID: 15, Store: "s", AdminToken: []byte("o")},
		{Op: opAdminDrop, ID: 16, Store: "s", AdminToken: []byte("o")},
		// A column revalidation: since protocol v13 the epoch and the held
		// row count are its only conditional fields.
		{Op: opEncAttrColumnIf, ID: 17, Store: "s", CondEpoch: 1 << 63, Have: 1 << 20},
		// opEnd is past the table (protocol v10 deleted the admission
		// override op, v12 the row-count op, v13 the compact op); the
		// decoder must refuse this frame.
		{Op: opEnd, ID: 18, Store: "s", AdminToken: []byte("o")},
		{Op: opRingDirectory, ID: 19},
		{Op: opStoreInfo, ID: 20, Store: "s"},
		{Op: opStoreSnapshot, ID: 21, Store: "s"},
		{Op: opStoreRestore, ID: 22, Store: "s", Blob: []byte("blob"), RingToken: []byte("ring")},
		{Op: opRepairAppend, ID: 23, Store: "s", Batch: batch, Have: 5, RingToken: []byte("ring")},
		{Op: opRingRepair, ID: 24, Store: "s"},
	}
	// The last frame carries an op number further past the table — one the
	// deleted read ops held before protocol v8 — so the decoder must refuse
	// it however the rest of the body mutates.
	reqs = append(reqs, &request{Op: opEnd + 1, ID: 6, Store: "s", AddrBatches: [][]int{{0}}})
	out := make([][]byte, 0, len(reqs))
	for _, r := range reqs {
		out = append(out, appendRequest(nil, r))
	}
	return out
}

// seedResponses mirrors seedRequests for the response decoder.
func seedResponses() [][]byte {
	rows := []storage.EncRow{{Addr: 1, TupleCT: []byte("ct"), AttrCT: []byte("a"), Token: []byte("t")}}
	type rc struct {
		resp *response
		x    byte
	}
	cases := []rc{
		{&response{ID: 1}, 0},
		{&response{ID: 2, Tuples: []relation.Tuple{{ID: 1, Values: []relation.Value{relation.Int(3)}}}}, 0},
		{&response{ID: 4, Addr: 9, N: 2}, 0},
		{&response{ID: 5, N: 44}, 0},
		{&response{ID: 6, Addrs: []int{1, 2}}, 0},
		{&response{ID: 7, Rows: rows}, 0},
		{&response{ID: 8, N: 3, Rows: rows}, respFlagPartial}, // the first chunk of a 3-row stream
		{&response{ID: 9, Err: "wire: boom"}, 0},
		{&response{ID: 10, VerEpoch: 3, VerN: 2, Delta: true, Rows: rows}, 0},
		{&response{ID: 11, RowBatches: [][]storage.EncRow{rows, nil}}, 0},
		{&response{ID: 25, VerEpoch: 1 << 40, VerN: 12, Delta: true}, 0},       // opPlainSearch, not modified
		{&response{ID: 12, N: 1}, 0},                                           // opPlainLoad
		{&response{ID: 13, Version: ProtocolVersion}, 0},                       // opHello
		{&response{ID: 14, Names: []string{"a", "b"}}, 0},                      // opAdminList
		{&response{ID: 15, Stats: StoreStats{Ops: 1, EncRows: 2}}, 0},          // opAdminStats
		{&response{ID: 16}, 0},                                                 // opAdminDrop
		{&response{ID: 17, VerEpoch: 3, VerN: 2}, 0},                           // opEncVersion
		{&response{ID: 18, N: 4}, 0},                                           // a bare count
		{&response{ID: 19, VerN: 2, Blob: []byte("dir")}, 0},                   // opRingDirectory
		{&response{ID: 20, Info: StoreInfo{Exists: true, PlainTuples: -1}}, 0}, // opStoreInfo
		{&response{ID: 21, Blob: []byte("snap"), N: 4}, 0},                     // opStoreSnapshot
		{&response{ID: 22, N: 5}, 0},                                           // opStoreRestore
		{&response{ID: 23, N: 6, Err: "wire: ring: cas"}, 0},                   // opRepairAppend
		{&response{ID: 24}, 0},                                                 // opRingRepair
	}
	out := make([][]byte, 0, len(cases))
	for _, c := range cases {
		out = append(out, appendResponse(nil, c.resp, c.x))
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
	f.Add(binary.AppendUvarint([]byte{byte(opEncFetchBatch), 1, 0, 10}, 1<<40)) // lying count
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		if err == nil && req == nil {
			t.Fatal("nil request with nil error")
		}
		if err == nil {
			if !req.Op.known() {
				t.Fatalf("decoded a request for op %d, which is not in the op table", req.Op)
			}
			// A frame that decodes must survive a re-encode/re-decode cycle
			// unchanged (byte equality is too strong: varints admit
			// non-minimal encodings, and a zero field may be spelled out).
			again, err := decodeRequest(appendRequest(nil, req))
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
	f.Add([]byte{1, 0xff}) // undefined flag bits
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, partial, err := decodeResponse(body, nil)
		if err == nil && resp == nil {
			t.Fatal("nil response with nil error")
		}
		if err == nil {
			var flags byte
			if partial {
				flags = respFlagPartial
			}
			again, partial2, err := decodeResponse(appendResponse(nil, resp, flags), nil)
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
	frame := func(body []byte) []byte {
		var buf bytes.Buffer
		if err := finishFrame(&buf, append(beginFrame(nil), body...)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(frame(seedRequests()[0]))
	f.Add(append(frame(seedRequests()[1]), frame(seedResponses()[1])...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01}) // giant length, no body
	f.Add([]byte{0, 0, 0, 0})                   // zero-length frame
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var scratch []byte
		r := bytes.NewReader(stream)
		for {
			body, err := readFrame(r, &scratch)
			if err != nil {
				return // every malformed stream must end in an error, not a panic
			}
			if len(body) > len(stream) {
				t.Fatalf("frame body of %d bytes from a %d-byte stream", len(body), len(stream))
			}
		}
	})
}
