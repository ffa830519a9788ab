package relation

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// FuzzDecodeValue ensures the value decoder never panics and that anything
// it accepts round-trips.
func FuzzDecodeValue(f *testing.F) {
	f.Add([]byte{})
	f.Add(Int(42).Encode())
	f.Add(Int(-1).Encode())
	f.Add(Str("hello").Encode())
	f.Add([]byte{byte(KindString), 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodeValue(data)
		if err != nil {
			return
		}
		consumed := len(data) - len(rest)
		enc := v.Encode()
		if !bytes.Equal(enc, data[:consumed]) {
			// Different bytes may decode to the same value only if they
			// re-encode identically; otherwise the codec is ambiguous.
			v2, _, err2 := DecodeValue(enc)
			if err2 != nil || !v2.Equal(v) {
				t.Fatalf("decode(%x) = %v does not round-trip", data[:consumed], v)
			}
		}
	})
}

// FuzzDecodeTuple ensures the tuple decoder never panics and that its
// re-encoding is stable. Byte-for-byte canonicality is NOT the invariant:
// binary.Uvarint accepts non-minimal varints (e.g. 0x80 0x00 for zero), so
// distinct inputs may decode to the same tuple — what must hold is that
// re-encoding and re-decoding reach a fixed point, and that the slab
// decoder and TupleValueAt agree with the per-tuple one.
func FuzzDecodeTuple(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTuple(Tuple{ID: 7, Values: []Value{Int(1), Str("x")}}))
	f.Add(EncodeTuple(Tuple{}))
	f.Add([]byte{'0', 0x80, 0x00}) // non-minimal arity varint, found by fuzzing
	// A trailing byte, and an unknown kind after a good value.
	f.Add(append(EncodeTuple(Tuple{ID: 1, Values: []Value{Str("a"), Int(2)}}), 0))
	f.Add([]byte{1, 2, byte(KindInt), 0, 0, 0, 0, 0, 0, 0, 1, 9})
	tupleEq := func(a, b Tuple) bool {
		return a.ID == b.ID && slices.Equal(a.Values, b.Values)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tu, err := DecodeTuple(data)
		// TupleValueAt fails wherever DecodeTuple does, and at every idx
		// outside the arity; elsewhere it returns DecodeTuple's value. A
		// rejected input is tried at every idx up to len(data), past any
		// arity its bytes could hold.
		arity := len(data)
		if err == nil {
			arity = len(tu.Values)
		}
		for idx := -1; idx <= arity; idx++ {
			v, verr := TupleValueAt(data, idx)
			if err != nil || idx < 0 || idx >= arity {
				if !errors.Is(verr, ErrCorrupt) {
					t.Fatalf("TupleValueAt(%x, %d) = %v, %v; want ErrCorrupt (DecodeTuple err %v)", data, idx, v, verr, err)
				}
			} else if verr != nil || v != tu.Values[idx] {
				t.Fatalf("TupleValueAt(%x, %d) = %v, %v; want %v", data, idx, v, verr, tu.Values[idx])
			}
		}
		if err != nil {
			return
		}
		enc := EncodeTuple(tu)
		tu2, err := DecodeTuple(enc)
		if err != nil || !tupleEq(tu2, tu) {
			t.Fatalf("re-decode of %x: got %v err %v, want %v", enc, tu2, err, tu)
		}
		if !bytes.Equal(EncodeTuple(tu2), enc) {
			t.Fatalf("re-encoding of %x is not a fixed point", data)
		}
		var slab []Value
		tu3, rest, err := DecodeTupleSlab(data, &slab)
		if err != nil || len(rest) != 0 || !tupleEq(tu3, tu) {
			t.Fatalf("DecodeTupleSlab(%x) = %v rest %x err %v, want %v", data, tu3, rest, err, tu)
		}
	})
}
