package crypto

import (
	"bytes"
	"testing"
)

func testKeys() *KeySet { return DeriveKeys([]byte("test master key")) }

func TestDeriveKeysDistinctAndStable(t *testing.T) {
	k1 := DeriveKeys([]byte("m"))
	k2 := DeriveKeys([]byte("m"))
	if !bytes.Equal(k1.Enc, k2.Enc) {
		t.Error("derivation not deterministic")
	}
	keys := [][]byte{k1.Enc, k1.Det, k1.Nonce, k1.PRF, k1.Arx}
	for i := range keys {
		if len(keys[i]) != 32 {
			t.Errorf("key %d has length %d", i, len(keys[i]))
		}
		for j := i + 1; j < len(keys); j++ {
			if bytes.Equal(keys[i], keys[j]) {
				t.Errorf("keys %d and %d collide", i, j)
			}
		}
	}
	other := DeriveKeys([]byte("other"))
	if bytes.Equal(k1.Enc, other.Enc) {
		t.Error("different masters derive equal keys")
	}
}

func TestProbabilisticRoundTrip(t *testing.T) {
	p, err := NewProbabilistic(testKeys().Enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 100)} {
		ct, err := p.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip %q -> %q", pt, got)
		}
	}
}

func TestProbabilisticIsNonDeterministic(t *testing.T) {
	p, err := NewProbabilistic(testKeys().Enc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Encrypt([]byte("same plaintext"))
	b, _ := p.Encrypt([]byte("same plaintext"))
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestProbabilisticAuthenticates(t *testing.T) {
	p, err := NewProbabilistic(testKeys().Enc)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := p.Encrypt([]byte("secret"))
	ct[len(ct)-1] ^= 0xFF
	if _, err := p.Decrypt(ct); err == nil {
		t.Fatal("tampered ciphertext decrypted")
	}
	if _, err := p.Decrypt([]byte{1, 2}); err == nil {
		t.Fatal("short ciphertext decrypted")
	}
}

func TestProbabilisticBadKey(t *testing.T) {
	if _, err := NewProbabilistic([]byte("short")); err == nil {
		t.Fatal("bad key size accepted")
	}
}

func TestDeterministicIsDeterministic(t *testing.T) {
	ks := testKeys()
	d, err := NewDeterministic(ks.Det, ks.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	a := d.Encrypt([]byte("v"))
	b := d.Encrypt([]byte("v"))
	if !bytes.Equal(a, b) {
		t.Fatal("deterministic cipher produced distinct ciphertexts")
	}
	c := d.Encrypt([]byte("w"))
	if bytes.Equal(a, c) {
		t.Fatal("distinct plaintexts collide")
	}
	got, err := d.Decrypt(a)
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("decrypt = %q, %v", got, err)
	}
	if _, err := d.Decrypt([]byte{0}); err == nil {
		t.Fatal("short ciphertext decrypted")
	}
}

func TestPRFStableAndKeyed(t *testing.T) {
	a := PRF([]byte("k1"), []byte("data"))
	b := PRF([]byte("k1"), []byte("data"))
	c := PRF([]byte("k2"), []byte("data"))
	if !bytes.Equal(a, b) {
		t.Error("PRF not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Error("PRF ignores key")
	}
}

func TestPRF2SeparatesInputs(t *testing.T) {
	// ("ab","c") and ("a","bc") must not collide thanks to the separator.
	if bytes.Equal(PRF2([]byte("k"), []byte("ab"), []byte("c")),
		PRF2([]byte("k"), []byte("a"), []byte("bc"))) {
		t.Fatal("PRF2 input boundary ambiguity")
	}
}

func TestArxTokensUniquePerOccurrence(t *testing.T) {
	a := NewArxTokenizer(testKeys().Arx)
	toks := a.Tokens([]byte("v"), 100)
	seen := make(map[string]bool)
	for _, tok := range toks {
		if seen[string(tok)] {
			t.Fatal("duplicate occurrence token")
		}
		seen[string(tok)] = true
	}
	// Regenerated tokens match.
	if !bytes.Equal(a.Token([]byte("v"), 7), toks[7]) {
		t.Fatal("token regeneration mismatch")
	}
	// Different values do not collide.
	if bytes.Equal(a.Token([]byte("v"), 0), a.Token([]byte("w"), 0)) {
		t.Fatal("tokens of distinct values collide")
	}
}
