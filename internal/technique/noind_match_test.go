package technique

import (
	"bytes"
	"encoding/binary"
	"fmt"
	mrand "math/rand/v2"
	"slices"
	"testing"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
)

// TestNoIndByteMatchEqualsDecodeMatch: the uncached NoInd scan matches a
// decrypted cell by its bytes against the query values' encodings. Over
// random relations that mix Int and Str cells, it must return exactly the
// addresses, in column order, and the payloads that decoding every cell
// and comparing values returns. The value pool holds an Int and a Str
// whose encodings differ only in the kind byte, an Int and a Str with the
// same eight payload bytes, strings that are prefixes of one another, and
// values no row holds.
func TestNoIndByteMatchEqualsDecodeMatch(t *testing.T) {
	strLen7 := int64(binary.BigEndian.Uint64([]byte{7, 'a', 'b', 'c', 'd', 'e', 'f', 'g'}))
	pool := []relation.Value{
		relation.Int(strLen7), relation.Str("abcdefg"), // same bytes after the kind byte
		relation.Int(int64(binary.BigEndian.Uint64([]byte("ABCDEFGH")))), relation.Str("ABCDEFGH"),
		relation.Str(""), relation.Str("a"), relation.Str("ab"), relation.Str("abc"),
		relation.Int(0), relation.Int(-1), relation.Int(1), relation.Int(7),
	}
	absent := []relation.Value{relation.Str("abcd"), relation.Int(99), relation.Str("\x00")}

	prob, err := crypto.NewProbabilistic(testKeys().Enc)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := mrand.New(mrand.NewPCG(seed, 41))
		store := storage.NewEncryptedStore()
		tech, err := NewNoIndOn(testKeys(), store)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, 1+rng.IntN(120))
		for i := range rows {
			rows[i] = Row{Payload: []byte(fmt.Sprintf("row %d", i)), Attr: pool[rng.IntN(len(pool))]}
		}
		if _, err := tech.Outsource(rows); err != nil {
			t.Fatal(err)
		}
		queries := make([][]relation.Value, 1+rng.IntN(6))
		for qi := range queries {
			for range 1 + rng.IntN(5) {
				if rng.IntN(4) == 0 {
					queries[qi] = append(queries[qi], absent[rng.IntN(len(absent))])
				} else {
					queries[qi] = append(queries[qi], pool[rng.IntN(len(pool))])
				}
			}
		}

		got, st, err := tech.SearchBatch(queries)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for qi, q := range queries {
			// The reference: decode every cell and compare values.
			var want []int
			var payloads [][]byte
			for _, r := range store.Rows() {
				pt, err := prob.Decrypt(r.AttrCT)
				if err != nil {
					t.Fatal(err)
				}
				v, _, err := relation.DecodeValue(pt)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(q, v) {
					want = append(want, r.Addr)
					payload, err := prob.Decrypt(r.TupleCT)
					if err != nil {
						t.Fatal(err)
					}
					payloads = append(payloads, payload)
				}
			}
			if addrs := st.PerQuery[qi].ReturnedAddrs; !slices.Equal(addrs, want) {
				t.Fatalf("seed %d, query %d %v: addresses %v, decode-then-compare gives %v", seed, qi, q, addrs, want)
			}
			if !slices.EqualFunc(got[qi], payloads, bytes.Equal) {
				t.Fatalf("seed %d, query %d %v: %d payloads differ from the %d decode-then-compare gives",
					seed, qi, q, len(got[qi]), len(payloads))
			}
		}
	}
}
