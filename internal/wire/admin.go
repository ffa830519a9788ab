package wire

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/storage"
)

// This file is the control plane: owner-authenticated namespace lifecycle
// ops. A namespace's owner token is derived from the owner's master key
// (OwnerToken), travels only inside requests, and is stored cloud-side as
// a hash — registered by the first tokened write to the namespace — so
// possession of the master key is what authorises dropping or inspecting
// an outsourced partition, exactly the trust model of the paper: the
// cloud is honest-but-curious, the owner alone holds keys.

// OwnerToken derives the control-plane token for a namespace from the
// owner's master key: PRF(K_admin, storeName) with K_admin an independent
// sub-key, so admin tokens can never be confused with search tokens or
// encryption keys, and each namespace gets its own token (a leaked token
// for one store does not endanger a sibling store under the same key).
func OwnerToken(masterKey []byte, store string) []byte {
	return crypto.PRF(crypto.DeriveKeys(masterKey).Admin, []byte(storeName(store)))
}

// hashToken is the at-rest form of an owner token: the cloud compares and
// persists hashes only, so neither a snapshot file nor the cloud's memory
// contains anything that grants admin rights.
func hashToken(tok []byte) []byte {
	h := sha256.Sum256(tok)
	return h[:]
}

// tokenMatches is the cloud's one token check: it reports whether
// presented hashes to the stored hash, comparing in constant time so the
// cloud's answer time does not leak how much of a forged token's hash
// matched. An empty stored hash or an empty presented token never
// matches. cmd/qbvet's TestTokensCompareInOnePlace pins that every
// owner- and ring-token comparison goes through here.
func tokenMatches(stored, presented []byte) bool {
	if len(stored) == 0 || len(presented) == 0 {
		return false
	}
	return hmac.Equal(stored, hashToken(presented))
}

// authorizeAdmin resolves the namespace of a per-namespace admin op and
// checks the presented owner token against the registered hash. It never
// creates the namespace: an admin op on an unknown store is an error, not
// a phantom store. Both refusal paths — no registered owner, and token
// mismatch — are explicit errors.
func (c *Cloud) authorizeAdmin(req *request) (*storage.Store, string, *response) {
	name := storeName(req.Store)
	st, ok := c.stores.Get(name)
	if !ok {
		return nil, name, &response{Err: fmt.Sprintf("wire: admin: unknown store %q", name)}
	}
	if st.OwnerHash() == nil {
		return nil, name, &response{Err: fmt.Sprintf(
			"wire: admin: store %q has no registered owner token (the first write to a namespace must present one)", name)}
	}
	if !tokenMatches(st.OwnerHash(), req.AdminToken) {
		return nil, name, &response{Err: fmt.Sprintf("wire: admin: store %q: owner token mismatch", name)}
	}
	return st, name, nil
}

// dispatchAdmin handles the three control-plane ops. It runs under the
// cloud-level read lock like every op, so a drop stays exclusive against
// snapshot Save/Restore, and it additionally quiesces its own namespace
// through the per-store lock (see storage.StoreSet).
func (c *Cloud) dispatchAdmin(req *request) response {
	if req.Op == opAdminList {
		return response{Names: c.stores.Names()}
	}
	st, name, refuse := c.authorizeAdmin(req)
	if refuse != nil {
		return *refuse
	}
	switch req.Op {
	case opAdminStats:
		return response{Stats: c.storeStats(name, st)}
	case opAdminDrop:
		c.stores.Drop(name)
		// The counters describe the destroyed state; a recreated namespace
		// starts fresh (and with a fresh owner claim).
		c.statsMu.Lock()
		delete(c.opCounts, name)
		delete(c.condCounts, name)
		c.statsMu.Unlock()
		return response{}
	default:
		return response{Err: "wire: unknown admin op"}
	}
}

// --- client side ---------------------------------------------------------

// AdminList returns the namespaces hosted by the connected cloud, sorted.
// Discovery needs no token: names are operator-visible anyway.
func (c *Client) AdminList() ([]string, error) {
	resp, err := c.roundTrip(&request{Op: opAdminList})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// AdminStats returns one namespace's accounting, authenticated by its
// owner token.
func (c *Client) AdminStats(store string, token []byte) (StoreStats, error) {
	resp, err := c.roundTrip(&request{Op: opAdminStats, Store: store, AdminToken: token})
	if err != nil {
		return StoreStats{}, err
	}
	return resp.Stats, nil
}

// AdminDrop destroys a namespace — clear-text partition, encrypted rows,
// token index, owner registration — authenticated by its owner token. The
// name is free for re-use (and re-claim) afterwards. On success this
// connection's view of the namespace forgets it too: its unflushed
// uploads are discarded and its next write starts at an empty store.
// Views on other connections still hold the old lengths; their next
// write is refused as stale and resyncs.
func (c *Client) AdminDrop(store string, token []byte) error {
	if _, err := c.roundTrip(&request{Op: opAdminDrop, Store: store, AdminToken: token}); err != nil {
		return err
	}
	if s, ok := c.stores.find(store); ok {
		s.forget()
	}
	return nil
}
