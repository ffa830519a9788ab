package wire

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// roundTripRequest pushes a request through the codec and back.
func roundTripRequest(t *testing.T, req *request) *request {
	t.Helper()
	body := appendRequest(nil, req)
	got, err := decodeRequest(body)
	if err != nil {
		t.Fatalf("decodeRequest(op %d): %v", req.Op, err)
	}
	return got
}

// roundTripResponse pushes a response through the codec and back.
func roundTripResponse(t *testing.T, resp *response, flags byte) (*response, bool) {
	t.Helper()
	body := appendResponse(nil, resp, flags)
	got, partial, err := decodeResponse(body, nil)
	if err != nil {
		t.Fatalf("decodeResponse(ID %d): %v", resp.ID, err)
	}
	return got, partial
}

// codecRows is a row set with one nil and one present token.
var codecRows = []storage.EncRow{
	{Addr: 0, TupleCT: []byte("ct0"), AttrCT: []byte("a0"), Token: []byte("t0")},
	{Addr: 7, TupleCT: []byte("ct7"), AttrCT: nil, Token: nil},
}

// TestBinRequestRoundTrip: every op's request survives the encode/decode
// cycle unchanged — including the nil-vs-empty token distinction the
// encrypted store's index depends on and the negative Have sentinel.
func TestBinRequestRoundTrip(t *testing.T) {
	tuple := relation.Tuple{ID: 42, Values: []relation.Value{relation.Int(-7), relation.Str("x")}}
	schema := relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt}, relation.Column{Name: "S", Kind: relation.KindString})
	reqs := []*request{
		{Op: opPing, ID: 1},
		// A full column or row pull is the conditional pull from the zero
		// version.
		{Op: opEncAttrColumnIf, ID: 3, Store: "a/b c"},
		{Op: opEncRowsIf, ID: 4},
		{Op: opPlainSearch, ID: 5, Store: "s", Values: []relation.Value{relation.Int(9), relation.Str("q")}},
		// A bin revalidation: the epoch and length of the held answer.
		{Op: opPlainSearch, ID: 6, Values: []relation.Value{relation.Int(9)}, CondEpoch: 1<<64 - 1, Have: 2000},
		{Op: opPlainInsert, ID: 7, Store: "s", AdminToken: []byte("tok"), Tuple: tuple, Have: 3},
		{Op: opEncAddBatch, ID: 11, AdminToken: []byte("owner"), Have: 2, Batch: []EncUpload{
			{TupleCT: []byte("r0"), AttrCT: []byte("a0"), Token: []byte("t0")},
			{TupleCT: []byte("r1"), AttrCT: nil, Token: nil},
			{TupleCT: []byte("r2"), AttrCT: []byte{}, Token: []byte{}},
		}},
		{Op: opEncFetchBatch, ID: 12, AddrBatches: [][]int{{0, 5, 1 << 20}}}, // a fetch: a batch of one list
		{Op: opEncFetchBatch, ID: 13, AddrBatches: [][]int{{1, 2}, nil, {3}}},
		{Op: opEncLookupToken, ID: 14, Store: "s", Token: []byte("needle")},
		{Op: opEncVersion, ID: 15},
		{Op: opEncAttrColumnIf, ID: 16, CondEpoch: 1<<64 - 1, Have: -1},
		{Op: opEncRowsIf, ID: 17, CondEpoch: 77, Have: 3},
		// The ops that rode gob until protocol v7.
		{Op: opPlainLoad, ID: 20, Store: "s", Schema: schema, Attr: "K", AdminToken: []byte("o"),
			Tuples: []relation.Tuple{tuple, {ID: 43, Values: []relation.Value{relation.Int(0), relation.Str("")}}}},
		{Op: opHello, ID: 21, Version: ProtocolVersion},
		{Op: opAdminList, ID: 22},
		{Op: opAdminStats, ID: 23, Store: "s", AdminToken: []byte("o")},
		{Op: opAdminDrop, ID: 24, Store: "s", AdminToken: []byte("o")},
		{Op: opRingDirectory, ID: 27},
		{Op: opStoreInfo, ID: 28, Store: "s"},
		{Op: opStoreSnapshot, ID: 29, Store: "s"},
		{Op: opStoreRestore, ID: 30, Store: "s", Blob: []byte("snapshot"), RingToken: []byte("ring")},
		{Op: opRepairAppend, ID: 31, Store: "s", Have: 0, RingToken: []byte("ring"),
			Batch: []EncUpload{{TupleCT: []byte("r"), AttrCT: []byte("a"), Token: nil}}},
		{Op: opRingRepair, ID: 32, Store: "s"},
	}
	seen := make(map[op]bool)
	for _, req := range reqs {
		seen[req.Op] = true
		got := roundTripRequest(t, req)
		if !reflect.DeepEqual(got, req) {
			t.Errorf("op %d: round trip\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
	for o := op(0); o < opEnd; o++ {
		if o.known() && !seen[o] {
			t.Errorf("op %d has no round-trip row", o)
		}
	}
}

// TestBinResponseRoundTrip: response payloads of every shape, error
// responses and the partial-chunk flag all survive the cycle.
func TestBinResponseRoundTrip(t *testing.T) {
	cases := []*response{
		{ID: 1},
		{ID: 3, Tuples: []relation.Tuple{
			{ID: 1, Values: []relation.Value{relation.Int(5)}},
			{ID: 2, Values: []relation.Value{relation.Str("s"), relation.Int(-1)}},
		}},
		{ID: 5, Addr: 99, N: 17},
		{ID: 5, Addr: -1}, // an empty batch's last address
		{ID: 6, N: 100000},
		{ID: 7, Addrs: []int{3, 1, 4}},
		{ID: 8, Rows: codecRows},
		{ID: 10, RowBatches: [][]storage.EncRow{codecRows, nil}},
		{ID: 11, Err: "wire: something logical"},
		{ID: 12, VerEpoch: 1<<64 - 1, VerN: 6},
		{ID: 13, VerEpoch: 2, VerN: 8, Delta: true, Rows: codecRows},
		// opPlainSearch: not modified, and a whole bin at its length.
		{ID: 14, VerEpoch: 1<<64 - 1, VerN: 2000, Delta: true},
		{ID: 14, VerEpoch: 9, VerN: 2001, Tuples: []relation.Tuple{{ID: 3, Values: []relation.Value{relation.Int(9)}}}},
		// The ops that rode gob until protocol v7.
		{ID: 20, N: 2},                     // opPlainLoad
		{ID: 21, Version: ProtocolVersion}, // opHello
		{ID: 21, Version: ProtocolVersion, Err: "wire: protocol version mismatch"},
		{ID: 22, Names: []string{"default", "", "hr"}}, // opAdminList
		{ID: 23, Stats: StoreStats{Ops: 9, PlainTuples: 2, EncRows: 3, CondHits: 1}},
		{ID: 24},                       // opAdminDrop
		{ID: 27, VerN: 4, Delta: true}, // opRingDirectory, not modified
		{ID: 27, VerN: 5, Blob: []byte("directory")}, // opRingDirectory
		{ID: 28, Info: StoreInfo{PlainTuples: -1}},   // opStoreInfo, no such store
		{ID: 28, Info: StoreInfo{Exists: true, PlainTuples: 4, EncRows: 5, VerEpoch: 1 << 63, VerN: 5, Claimed: true}},
		{ID: 29, Blob: []byte{}},                        // opStoreSnapshot, empty blob
		{ID: 31, N: 4, Err: "storage: length mismatch"}, // opRepairAppend CAS miss
	}
	for _, resp := range cases {
		got, partial := roundTripResponse(t, resp, 0)
		if partial {
			t.Errorf("ID %d: unexpected partial flag", resp.ID)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("ID %d: round trip\n got %+v\nwant %+v", resp.ID, got, resp)
		}
	}

	// The partial flag survives independently of the payload; a stream's
	// chunk declares the stream's row total, here one row more than it
	// brings.
	chunk := &response{ID: 20, N: len(codecRows) + 1, Rows: codecRows}
	got, partial := roundTripResponse(t, chunk, respFlagPartial)
	if !partial {
		t.Error("partial flag lost in round trip")
	}
	if !reflect.DeepEqual(got, chunk) {
		t.Errorf("partial chunk round trip: got %+v", got)
	}
}

// TestBinDecodeRejectsCorruptInput: systematic truncation of valid frames
// plus targeted corruptions must return errors — never panic, never
// succeed on a field the walk does not know. A frame cut exactly between
// two fields is a well-formed frame without the later ones; a cut
// anywhere else is corrupt.
func TestBinDecodeRejectsCorruptInput(t *testing.T) {
	req := &request{Op: opEncAddBatch, ID: 9, Store: "tenant", AdminToken: []byte("o"), Batch: []EncUpload{
		{TupleCT: []byte("row"), AttrCT: []byte("attr"), Token: []byte("tok")},
	}}
	body := appendRequest(nil, req)
	between := map[int]bool{
		len(appendRequest(nil, &request{Op: req.Op, ID: req.ID, Store: req.Store})):                             true,
		len(appendRequest(nil, &request{Op: req.Op, ID: req.ID, Store: req.Store, AdminToken: req.AdminToken})): true,
	}
	for n := 0; n < len(body); n++ {
		if _, err := decodeRequest(body[:n]); (err == nil) != between[n] {
			t.Errorf("request truncated to %d/%d bytes: err = %v", n, len(body), err)
		}
	}
	// A tag past the last field is unknown; tag 0 is never valid.
	if _, err := decodeRequest(append(append([]byte{}, body...), 100)); err == nil ||
		!strings.Contains(err.Error(), "unknown field tag") {
		t.Errorf("request with an unknown tag: %v", err)
	}
	if _, err := decodeRequest(append(append([]byte{}, body...), 0)); err == nil {
		t.Error("request with tag 0 decoded successfully")
	}
	// Tags must strictly ascend: a repeated field and a field out of order
	// are both corrupt. The walk numbers request fields from 1 (Version).
	hello := []byte{byte(opHello), 1, 0}
	if _, err := decodeRequest(append(hello, 1, 2)); err != nil {
		t.Fatalf("well-formed hello: %v", err)
	}
	for name, fields := range map[string][]byte{
		"repeated tag":     {1, 2, 1, 2},
		"out-of-order tag": {5, 0, 1, 2}, // Attr "", then Version
	} {
		if _, err := decodeRequest(append(append([]byte{}, hello...), fields...)); err == nil {
			t.Errorf("request with a %s decoded successfully", name)
		}
	}
	// An op outside the op table is a protocol violation: no client frames
	// it.
	for _, tc := range []struct {
		name string
		o    op
	}{{"zero op", 0}, {"op past the table", opEnd}, {"unassigned op", 200}, {"deleted admission override op", 23}} {
		if tc.o.known() {
			t.Errorf("op %d (%s) is known", tc.o, tc.name)
		}
		if _, err := decodeRequest([]byte{byte(tc.o), 1, 0}); err == nil {
			t.Errorf("request frame carrying a %s decoded successfully", tc.name)
		}
	}

	resp := &response{ID: 3, Rows: []storage.EncRow{{Addr: 1, TupleCT: []byte("ct")}}}
	rbody := appendResponse(nil, resp, 0)
	for n := 0; n < len(rbody); n++ {
		if _, _, err := decodeResponse(rbody[:n], nil); (err == nil) != (n == 2) { // ID and flags only
			t.Errorf("response truncated to %d/%d bytes: err = %v", n, len(rbody), err)
		}
	}
	if _, _, err := decodeResponse(append(append([]byte{}, rbody...), 100), nil); err == nil {
		t.Error("response with an unknown tag decoded successfully")
	}
	// Flag bits other than partial are not defined.
	if _, _, err := decodeResponse([]byte{1, 1 << 1}, nil); err == nil {
		t.Error("response with an undefined flag bit decoded successfully")
	}
	// A bool inside a sub-record is 0 or 1, nothing else.
	info := appendResponse(nil, &response{ID: 1, Info: StoreInfo{Exists: true}}, 0)
	info[len(info)-6] = 4 // Exists (zigzag 2): the first of StoreInfo's six values
	if _, _, err := decodeResponse(info, nil); err == nil {
		t.Error("StoreInfo with a non-canonical bool decoded successfully")
	}
	// A lying collection count larger than the remaining bytes must be
	// rejected up front (it is what would otherwise force a huge
	// allocation). Field 10 is AddrBatches.
	lie := []byte{byte(opEncFetchBatch), 1, 0, 10, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := decodeRequest(lie); err == nil {
		t.Error("request with lying addr count decoded successfully")
	}
}

// TestBinDecodedFieldsDoNotAliasInput: decoded byte fields must be copies
// — the frame body aliases a reused scratch buffer, and both the server's
// store and the client's technique retain what they are handed.
func TestBinDecodedFieldsDoNotAliasInput(t *testing.T) {
	req := &request{Op: opEncAddBatch, ID: 1, Batch: []EncUpload{{TupleCT: []byte("tuple"), AttrCT: []byte("attr"), Token: []byte("tok")}}}
	body := appendRequest(nil, req)
	decoded, err := decodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xAA // simulate the scratch being reused for the next frame
	}
	got := decoded.Batch[0]
	if string(got.TupleCT) != "tuple" || string(got.AttrCT) != "attr" || string(got.Token) != "tok" {
		t.Fatalf("decoded fields alias the frame body: %q %q %q", got.TupleCT, got.AttrCT, got.Token)
	}
}
