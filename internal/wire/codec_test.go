package wire

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// roundTripRequest pushes a request through the binary codec and back.
func roundTripRequest(t *testing.T, req *request) *request {
	t.Helper()
	body := appendBinRequest(nil, req)
	got, err := decodeBinRequest(body)
	if err != nil {
		t.Fatalf("decodeBinRequest(op %d): %v", req.Op, err)
	}
	return got
}

// roundTripResponse pushes a response through the binary codec and back.
func roundTripResponse(t *testing.T, o op, resp *response, extra byte) (*response, bool) {
	t.Helper()
	body := appendBinResponse(nil, o, resp, extra)
	got, partial, err := decodeBinResponse(body)
	if err != nil {
		t.Fatalf("decodeBinResponse(op %d): %v", o, err)
	}
	return got, partial
}

// TestBinRequestRoundTrip: every binary-codec op's request survives the
// encode/decode cycle unchanged, including the nil-vs-empty token
// distinction the encrypted store's index depends on.
func TestBinRequestRoundTrip(t *testing.T) {
	tuple := relation.Tuple{ID: 42, Values: []relation.Value{relation.Int(-7), relation.Str("x")}}
	reqs := []*request{
		{Op: opPing, ID: 1},
		{Op: opEncLen, ID: 2, Store: "tenant"},
		{Op: opEncAttrColumn, ID: 3, Store: "a/b c"},
		{Op: opEncRows, ID: 4},
		{Op: opPlainSearch, ID: 5, Store: "s", Values: []relation.Value{relation.Int(9), relation.Str("q")}},
		{Op: opPlainSearchRange, ID: 6, Lo: relation.Int(-100), Hi: relation.Int(100)},
		{Op: opPlainInsert, ID: 7, Store: "s", AdminToken: []byte("tok"), Tuple: tuple},
		{Op: opEncAddBatch, ID: 11, AdminToken: []byte("owner"), Batch: []EncUpload{
			{TupleCT: []byte("r0"), AttrCT: []byte("a0"), Token: []byte("t0")},
			{TupleCT: []byte("r1"), AttrCT: nil, Token: nil},
			{TupleCT: []byte("r2"), AttrCT: []byte{}, Token: []byte{}},
		}},
		{Op: opEncFetch, ID: 12, Addrs: []int{0, 5, 1 << 20}},
		{Op: opEncFetchBatch, ID: 13, AddrBatches: [][]int{{1, 2}, nil, {3}}},
		{Op: opEncLookupToken, ID: 14, Store: "s", Token: []byte("needle")},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if !reflect.DeepEqual(got, req) {
			t.Errorf("op %d: round trip\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
}

// TestBinResponseRoundTrip: response payloads per op, error responses and
// the partial-chunk flag all survive the cycle.
func TestBinResponseRoundTrip(t *testing.T) {
	rows := []storage.EncRow{
		{Addr: 0, TupleCT: []byte("ct0"), AttrCT: []byte("a0"), Token: []byte("t0")},
		{Addr: 7, TupleCT: []byte("ct7"), AttrCT: nil, Token: nil},
	}
	cases := []struct {
		o    op
		resp *response
	}{
		{opPing, &response{ID: 1}},
		{opPlainInsert, &response{ID: 2}},
		{opPlainSearch, &response{ID: 3, Tuples: []relation.Tuple{
			{ID: 1, Values: []relation.Value{relation.Int(5)}},
			{ID: 2, Values: []relation.Value{relation.Str("s"), relation.Int(-1)}},
		}}},
		{opEncAddBatch, &response{ID: 5, Addr: 99, N: 17}},
		{opEncLen, &response{ID: 6, N: 100000}},
		{opEncLookupToken, &response{ID: 7, Addrs: []int{3, 1, 4}}},
		{opEncFetch, &response{ID: 8, Rows: rows}},
		{opEncRows, &response{ID: 9, Rows: rows}},
		{opEncFetchBatch, &response{ID: 10, RowBatches: [][]storage.EncRow{rows, nil}}},
		{opEncLen, &response{ID: 11, Err: "wire: something logical"}},
	}
	for _, tc := range cases {
		got, partial := roundTripResponse(t, tc.o, tc.resp, 0)
		if partial {
			t.Errorf("op %d: unexpected partial flag", tc.o)
		}
		if !reflect.DeepEqual(got, tc.resp) {
			t.Errorf("op %d: round trip\n got %+v\nwant %+v", tc.o, got, tc.resp)
		}
	}

	// The partial flag survives independently of the payload.
	chunk := &response{ID: 20, Rows: rows}
	got, partial := roundTripResponse(t, opEncRows, chunk, respFlagPartial)
	if !partial {
		t.Error("partial flag lost in round trip")
	}
	if !reflect.DeepEqual(got, chunk) {
		t.Errorf("partial chunk round trip: got %+v", got)
	}
}

// TestBinDecodeRejectsCorruptInput: systematic truncation of valid frames
// plus targeted corruptions must return errors — never panic, never
// succeed on trailing garbage.
func TestBinDecodeRejectsCorruptInput(t *testing.T) {
	req := &request{Op: opEncAddBatch, ID: 9, Store: "tenant", AdminToken: []byte("o"), Batch: []EncUpload{
		{TupleCT: []byte("row"), AttrCT: []byte("attr"), Token: []byte("tok")},
	}}
	body := appendBinRequest(nil, req)
	for n := 0; n < len(body); n++ {
		if _, err := decodeBinRequest(body[:n]); err == nil {
			t.Errorf("truncated request (%d/%d bytes) decoded successfully", n, len(body))
		}
	}
	if _, err := decodeBinRequest(append(append([]byte{}, body...), 0xff)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("request with trailing byte: %v", err)
	}
	// A non-binary op in a binary frame is a protocol violation, and so is
	// the reserved slot 5 (the retired one-row upload): no client frames
	// it, so the decoder must refuse it like any unknown op.
	for _, tc := range []struct {
		name string
		o    op
	}{{"gob-only op", opHello}, {"reserved op 5", 5}, {"unassigned op", 200}} {
		if binaryOp(tc.o) {
			t.Errorf("binaryOp(%d) = true for a %s", tc.o, tc.name)
		}
		if _, err := decodeBinRequest([]byte{byte(tc.o), 1, 0}); err == nil {
			t.Errorf("binary request frame carrying a %s decoded successfully", tc.name)
		}
		if _, _, err := decodeBinResponse([]byte{byte(tc.o), 1, 0}); err == nil {
			t.Errorf("binary response frame carrying a %s decoded successfully", tc.name)
		}
	}

	resp := &response{ID: 3, Rows: []storage.EncRow{{Addr: 1, TupleCT: []byte("ct")}}}
	rbody := appendBinResponse(nil, opEncFetch, resp, 0)
	for n := 0; n < len(rbody); n++ {
		if _, _, err := decodeBinResponse(rbody[:n]); err == nil {
			t.Errorf("truncated response (%d/%d bytes) decoded successfully", n, len(rbody))
		}
	}
	if _, _, err := decodeBinResponse(append(append([]byte{}, rbody...), 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("response with trailing byte: %v", err)
	}
	// An error flag with no message is not a valid frame.
	if _, _, err := decodeBinResponse([]byte{byte(opEncLen), 1, respFlagErr}); err == nil {
		t.Error("error response without a message decoded successfully")
	}
	// A lying collection count larger than the remaining bytes must be
	// rejected up front (it is what would otherwise force a huge
	// allocation).
	lie := []byte{byte(opEncFetch), 1, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := decodeBinRequest(lie); err == nil {
		t.Error("request with lying addr count decoded successfully")
	}
}

// TestBinDecodedFieldsDoNotAliasInput: decoded byte fields must be copies
// — the frame body aliases a reused scratch buffer, and both the server's
// store and the client's technique retain what they are handed.
func TestBinDecodedFieldsDoNotAliasInput(t *testing.T) {
	req := &request{Op: opEncAddBatch, ID: 1, Batch: []EncUpload{{TupleCT: []byte("tuple"), AttrCT: []byte("attr"), Token: []byte("tok")}}}
	body := appendBinRequest(nil, req)
	decoded, err := decodeBinRequest(body)
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
