package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// Probabilistic is a non-deterministic authenticated cipher (AES-256-GCM
// with a random nonce). Two encryptions of the same plaintext produce
// unrelated ciphertexts, giving the ciphertext indistinguishability the
// partitioned-computation model assumes for the sensitive relation
// ("the two occurrences of E152 have two different ciphertexts", §II).
type Probabilistic struct {
	aead cipher.AEAD
}

// NewProbabilistic builds a probabilistic cipher from a 16/24/32-byte key.
func NewProbabilistic(key []byte) (*Probabilistic, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: probabilistic cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: probabilistic cipher: %w", err)
	}
	return &Probabilistic{aead: aead}, nil
}

// Encrypt seals pt under a fresh random nonce. The result is nonce || ct.
func (p *Probabilistic) Encrypt(pt []byte) ([]byte, error) {
	nonce := make([]byte, p.aead.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("crypto: nonce: %w", err)
	}
	return p.aead.Seal(nonce, nonce, pt, nil), nil
}

// ErrDecrypt is returned when a ciphertext fails authentication.
var ErrDecrypt = errors.New("crypto: decryption failed")

// Decrypt opens nonce || ct.
func (p *Probabilistic) Decrypt(ct []byte) ([]byte, error) {
	return p.DecryptAppend(nil, ct)
}

// DecryptAppend opens nonce || ct, appending the plaintext to dst and
// returning the extended slice. Scan-style callers (NoInd's column pass
// decrypts every stored attribute cell per search) pass a reused scratch
// buffer so steady-state decryption allocates nothing.
func (p *Probabilistic) DecryptAppend(dst, ct []byte) ([]byte, error) {
	ns := p.aead.NonceSize()
	if len(ct) < ns {
		return nil, ErrDecrypt
	}
	pt, err := p.aead.Open(dst, ct[:ns], ct[ns:], nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
