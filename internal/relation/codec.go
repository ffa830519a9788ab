package relation

import (
	"encoding/binary"
	"fmt"
)

// AppendEncodeTuple appends a self-describing binary encoding of t to buf
// and returns the extended buffer: uvarint ID, uvarint arity, then each
// value's encoding. The encoding is the plaintext that gets encrypted when
// a sensitive tuple is outsourced; it is also how tuples travel inside the
// wire protocol's binary frames, where the append form avoids one
// allocation per tuple.
func AppendEncodeTuple(buf []byte, t Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.ID))
	buf = binary.AppendUvarint(buf, uint64(len(t.Values)))
	for _, v := range t.Values {
		buf = v.AppendEncode(buf)
	}
	return buf
}

// EncodeTuple serialises a tuple to its binary form.
func EncodeTuple(t Tuple) []byte { return AppendEncodeTuple(nil, t) }

// decodeTupleHeader reads a tuple's ID and arity from the front of b and
// returns the bytes holding its values. Every value costs at least one
// byte, so a lying arity is rejected before anything is sized by it.
func decodeTupleHeader(b []byte) (id, n uint64, rest []byte, err error) {
	id, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, 0, b, ErrCorrupt
	}
	b = b[w:]
	n, w = binary.Uvarint(b)
	if w <= 0 {
		return 0, 0, b, ErrCorrupt
	}
	b = b[w:]
	if n > uint64(len(b)) {
		return 0, 0, b, ErrCorrupt
	}
	return id, n, b, nil
}

// appendValues decodes n values from the front of b onto dst.
func appendValues(dst []Value, b []byte, n uint64) ([]Value, []byte, error) {
	for ; n > 0; n-- {
		v, rest, err := DecodeValue(b)
		if err != nil {
			return dst, rest, err
		}
		dst = append(dst, v)
		b = rest
	}
	return dst, b, nil
}

// DecodeTupleSlab decodes one tuple from the front of b and returns the
// remaining bytes, drawing the Values backing from *slab instead of a
// fresh allocation per tuple, for decode loops that materialise many
// tuples from one buffer (the wire codec's search responses, the owner's
// q_merge payload decode). The slab grows geometrically; when it grows,
// previously returned tuples keep their old backing, and every returned
// Values slice is capped with a full slice expression so a caller's
// append cannot clobber a neighbour.
func DecodeTupleSlab(b []byte, slab *[]Value) (Tuple, []byte, error) {
	id, n, b, err := decodeTupleHeader(b)
	if err != nil {
		return Tuple{}, b, err
	}
	s := *slab
	if uint64(cap(s)-len(s)) < n {
		grow := 2 * cap(s)
		if grow < 64 {
			grow = 64
		}
		if uint64(grow) < n {
			grow = int(n)
		}
		s = make([]Value, 0, grow)
	}
	base := len(s)
	s, b, err = appendValues(s, b, n)
	*slab = s
	if err != nil {
		return Tuple{}, b, err
	}
	return Tuple{ID: int(id), Values: s[base:len(s):len(s)]}, b, nil
}

// DecodeTuple parses a tuple previously produced by EncodeTuple,
// requiring the buffer to contain exactly one tuple. Its Values are one
// allocation of exactly the tuple's arity.
func DecodeTuple(b []byte) (Tuple, error) {
	id, n, b, err := decodeTupleHeader(b)
	if err != nil {
		return Tuple{}, err
	}
	vals, rest, err := appendValues(make([]Value, 0, n), b, n)
	if err != nil {
		return Tuple{}, err
	}
	if len(rest) != 0 {
		return Tuple{}, ErrCorrupt
	}
	return Tuple{ID: int(id), Values: vals}, nil
}

// TupleValueAt returns the value at column idx of the one tuple encoded in
// b. It checks the whole encoding exactly as DecodeTuple does, but steps
// over the other values without building them, so a caller that only
// needs one column to decide whether it wants the tuple at all pays for
// that column alone. An idx at or past the tuple's arity is ErrCorrupt.
func TupleValueAt(b []byte, idx int) (Value, error) {
	_, n, b, err := decodeTupleHeader(b)
	if err != nil {
		return Value{}, err
	}
	if idx < 0 || uint64(idx) >= n {
		return Value{}, ErrCorrupt
	}
	var at []byte
	for i := uint64(0); i < n; i++ {
		w, err := valueLen(b)
		if err != nil {
			return Value{}, err
		}
		if i == uint64(idx) {
			at = b[:w]
		}
		b = b[w:]
	}
	if len(b) != 0 {
		return Value{}, ErrCorrupt
	}
	v, _, err := DecodeValue(at)
	return v, err
}

// valueLen returns the length of the value encoding at the front of b,
// rejecting exactly what DecodeValue rejects.
func valueLen(b []byte) (int, error) {
	if len(b) < 1 {
		return 0, ErrCorrupt
	}
	switch Kind(b[0]) {
	case KindInt:
		if len(b) < 9 {
			return 0, ErrCorrupt
		}
		return 9, nil
	case KindString:
		n, w := binary.Uvarint(b[1:])
		if w <= 0 || uint64(len(b)-1-w) < n {
			return 0, ErrCorrupt
		}
		return 1 + w + int(n), nil
	default:
		return 0, fmt.Errorf("relation: unknown value kind %d: %w", b[0], ErrCorrupt)
	}
}
