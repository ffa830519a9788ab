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
// possession of the master key is what authorises dropping, compacting or
// inspecting an outsourced partition, exactly the trust model of the
// paper: the cloud is honest-but-curious, the owner alone holds keys.

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

// authorizeAdmin resolves the namespace of a per-namespace admin op and
// checks the presented owner token against the registered hash. It never
// creates the namespace: an admin op on an unknown store is an error, not
// a phantom store. Both refusal paths — no registered owner, and token
// mismatch — are explicit errors; the comparison is constant-time.
func (c *Cloud) authorizeAdmin(req *request) (*storage.Store, string, *response) {
	name := storeName(req.Store)
	st, ok := c.stores.Get(name)
	if !ok {
		return nil, name, &response{Err: fmt.Sprintf("wire: admin: unknown store %q", name)}
	}
	stored := st.OwnerHash()
	if stored == nil {
		return nil, name, &response{Err: fmt.Sprintf(
			"wire: admin: store %q has no registered owner token (the first write to a namespace must present one)", name)}
	}
	if len(req.AdminToken) == 0 || !hmac.Equal(stored, hashToken(req.AdminToken)) {
		return nil, name, &response{Err: fmt.Sprintf("wire: admin: store %q: owner token mismatch", name)}
	}
	return st, name, nil
}

// dispatchAdmin handles the four control-plane ops. It runs under the
// cloud-level read lock like every op, so admin mutations stay exclusive
// against snapshot Save/Restore; Drop and Compact additionally quiesce
// their own namespace through the per-store lock (see storage.StoreSet).
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
	case opAdminCompact:
		return response{N: st.Compact()}
	case opAdminSetWorkers:
		return response{N: c.SetStoreWorkersFor(name, req.Workers)}
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
// name is free for re-use (and re-claim) afterwards; any client-side view
// of the dropped store holds stale address arithmetic and must be
// discarded.
func (c *Client) AdminDrop(store string, token []byte) error {
	_, err := c.roundTrip(&request{Op: opAdminDrop, Store: store, AdminToken: token})
	return err
}

// AdminCompact rebuilds a namespace's encrypted store into exactly-sized
// allocations, authenticated by its owner token, and returns the retained
// row count. Addresses are preserved, so owner metadata stays valid.
func (c *Client) AdminCompact(store string, token []byte) (int, error) {
	resp, err := c.roundTrip(&request{Op: opAdminCompact, Store: store, AdminToken: token})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// AdminSetWorkers overrides one namespace's admission bound at runtime,
// authenticated by its owner token: n > 0 bounds the namespace to n
// concurrent ops, 0 lifts the bound for it, n < 0 clears the override back
// to the server-wide -store-workers default. It returns the effective cap.
func (c *Client) AdminSetWorkers(store string, token []byte, n int) (int, error) {
	resp, err := c.roundTrip(&request{Op: opAdminSetWorkers, Store: store, AdminToken: token, Workers: n})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}
