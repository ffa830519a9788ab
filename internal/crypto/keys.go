// Package crypto provides the cryptographic substrates required by the QB
// reproduction: non-deterministic (probabilistic) AES-GCM encryption with
// ciphertext indistinguishability, an intentionally-leaky deterministic
// cipher used as an attackable baseline, HMAC-SHA-256 PRF search tokens,
// Arx-style counter tokens, and Shamir secret sharing over GF(2^61-1).
//
// Everything is built from the Go standard library.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
)

// KeySet holds the independent sub-keys the DB owner derives from a single
// master key. Each purpose gets its own key so that, e.g., search tokens can
// never be confused with encryption keys.
type KeySet struct {
	Enc   []byte // probabilistic tuple encryption
	Det   []byte // deterministic attribute encryption (baseline)
	Nonce []byte // synthetic-IV derivation for the deterministic cipher
	PRF   []byte // search-token PRF
	Arx   []byte // Arx-style counter tokens
	Admin []byte // control-plane owner tokens (namespace lifecycle ops)
}

// DeriveKeys expands a master secret into a KeySet using HMAC-SHA-256 with
// distinct labels (an HKDF-expand in spirit).
func DeriveKeys(master []byte) *KeySet {
	return &KeySet{
		Enc:   derive(master, "enc"),
		Det:   derive(master, "det"),
		Nonce: derive(master, "nonce"),
		PRF:   derive(master, "prf"),
		Arx:   derive(master, "arx"),
		Admin: derive(master, "admin"),
	}
}

func derive(master []byte, label string) []byte {
	m := hmac.New(sha256.New, master)
	m.Write([]byte("qb/v1/"))
	m.Write([]byte(label))
	return m.Sum(nil)
}

// PRF computes HMAC-SHA-256(key, data). It is the pseudorandom function
// behind search tokens and deterministic nonces.
func PRF(key, data []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(data)
	return m.Sum(nil)
}

// PRF2 computes HMAC-SHA-256(key, a || b) with an unambiguous separator.
func PRF2(key, a, b []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(a)
	m.Write([]byte{0x1f})
	m.Write(b)
	return m.Sum(nil)
}
