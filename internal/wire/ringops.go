package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/storage"
)

// This file is the ring plane (protocol v5): the ops a qbring coordinator
// and its qbcloud nodes speak among themselves, riding the same frames
// and codec as everything else.
//
// Two trust domains meet here and stay separate. Tenants authenticate
// writes and admin ops with per-namespace owner tokens; the ring
// authenticates replica-state transfer (opStoreRestore, opRepairAppend)
// with one cluster-wide ring token shared by the nodes and the
// coordinator. The ring token grants no plaintext: everything it moves —
// snapshot blobs, tail rows — is the ciphertext-and-addresses image the
// honest-but-curious cloud already holds, so replication never widens the
// adversarial view, and a forged repair is detectable owner-side because
// tuple ciphertexts are AEAD-sealed under keys the ring never sees.

// SetRingDirectory installs the placement-directory provider a qbring
// coordinator serves through opRingDirectory. The callback returns the
// current directory as an opaque blob (the wire layer never interprets
// it). It must be set before Serve; the provider synchronises internally.
func (c *Cloud) SetRingDirectory(fn func() []byte) {
	c.ringDir = fn
}

// SetRingRepair installs the targeted-repair handler a qbring coordinator
// serves through opRingRepair: one immediate anti-entropy round for the
// named namespace, bypassing the sweep's divergence grace window. It must
// be set before Serve; the handler synchronises internally. Like the
// divergence probe this op carries no secret — the caller can only ask
// the coordinator to do sooner what its sweep would do anyway, and the
// actual replica transfer the repair performs is still ring-token-guarded
// on the nodes.
func (c *Cloud) SetRingRepair(fn func(store string) error) {
	c.ringRepair = fn
}

// SetRingToken configures the cluster's ring token, enabling the
// ring-guarded repair ops on this server. Like owner tokens, only the
// hash is retained. It must be called before Serve; servers without a
// ring token refuse opStoreRestore/opRepairAppend outright, so a
// single-node qbcloud exposes no repair surface at all.
func (c *Cloud) SetRingToken(tok []byte) {
	if len(tok) == 0 {
		c.ringTokenHash = nil
		return
	}
	c.ringTokenHash = hashToken(tok)
}

// authorizeRing checks a ring-guarded op's token. Both refusals are
// explicit.
func (c *Cloud) authorizeRing(req *request) *response {
	if c.ringTokenHash == nil {
		return &response{Err: "wire: ring: repair ops disabled on this server (no ring token configured)"}
	}
	if !tokenMatches(c.ringTokenHash, req.RingToken) {
		return &response{Err: "wire: ring: ring token mismatch"}
	}
	return nil
}

// dispatchRingDirectory serves the placement directory (coordinator only).
func (c *Cloud) dispatchRingDirectory(req *request) response {
	if c.ringDir == nil {
		return response{Err: "wire: ring: this server does not serve a placement directory (not a qbring coordinator)"}
	}
	return response{Blob: c.ringDir()}
}

// dispatchRingRepair runs a targeted anti-entropy round (coordinator only).
func (c *Cloud) dispatchRingRepair(req *request) response {
	if c.ringRepair == nil {
		return response{Err: "wire: ring: this server does not run anti-entropy (not a qbring coordinator)"}
	}
	if err := c.ringRepair(storeName(req.Store)); err != nil {
		return response{Err: err.Error()}
	}
	return response{}
}

// dispatchRing handles the per-namespace ring ops. Like the admin plane it
// resolves namespaces without creating them — a probe must not materialise
// a phantom replica — and runs under the cloud-level read lock, so replica
// transfer stays exclusive against full snapshot Save/Restore.
func (c *Cloud) dispatchRing(req *request) response {
	name := storeName(req.Store)
	switch req.Op {
	case opStoreInfo:
		info := StoreInfo{PlainTuples: -1}
		if st, ok := c.stores.Get(name); ok {
			info.Exists = true
			v, _ := st.Enc().EncVersion()
			info.VerEpoch, info.VerN = v.Epoch, v.N
			info.EncRows = st.Enc().Len()
			info.Claimed = st.OwnerHash() != nil
			if ps := st.Plain(); ps != nil {
				info.PlainTuples = ps.Len()
			}
		}
		return response{Info: info}

	case opStoreSnapshot:
		st, ok := c.stores.Get(name)
		if !ok {
			return response{Err: fmt.Sprintf("wire: ring: unknown store %q", name)}
		}
		blob, err := encodeStoreSnapshot(name, st)
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{Blob: blob, N: len(blob)}

	case opStoreRestore:
		if refuse := c.authorizeRing(req); refuse != nil {
			return *refuse
		}
		n, err := c.restoreStore(name, req.Blob)
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{N: n}

	case opRepairAppend:
		if refuse := c.authorizeRing(req); refuse != nil {
			return *refuse
		}
		st, ok := c.stores.Get(name)
		if !ok {
			return response{Err: fmt.Sprintf("wire: ring: repair append into unknown store %q (full restore required)", name)}
		}
		rows := make([]storage.EncRow, len(req.Batch))
		for i, u := range req.Batch {
			if len(u.TupleCT) == 0 {
				return response{Err: fmt.Sprintf("wire: ring: repair append: row %d has empty tuple ciphertext", i)}
			}
			rows[i] = storage.EncRow{TupleCT: u.TupleCT, AttrCT: u.AttrCT, Token: u.Token}
		}
		n, err := st.Enc().AppendIfLen(rows, req.Have)
		if err != nil {
			return response{N: n, Err: err.Error()}
		}
		return response{N: n}

	default:
		return response{Err: "wire: unknown ring op"}
	}
}

// encodeStoreSnapshot serialises one namespace in the storeSnapshot gob
// layout — the same migration unit snapshot files use, so a replica
// restore and a state-file restore share one code path. It runs under the
// shared cloud lock (unlike full Save's exclusive lock).
func encodeStoreSnapshot(name string, st *storage.Store) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(storeSnapshotOf(name, st)); err != nil {
		return nil, fmt.Errorf("wire: ring: snapshot encode: %w", err)
	}
	return buf.Bytes(), nil
}

// restoreStore installs a storeSnapshot blob as the namespace's new state,
// returning the encrypted row count. The store is materialised fully
// before the registry swap (a bad blob leaves the replica untouched), the
// displaced store is quiesced like a drop, and — as with file restore —
// the rebuilt store draws a fresh epoch, so every owner-side cache
// revalidates.
func (c *Cloud) restoreStore(name string, blob []byte) (int, error) {
	var ss storeSnapshot
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&ss); err != nil {
		return 0, fmt.Errorf("wire: ring: snapshot decode: %w", err)
	}
	st, err := materialiseStore(ss)
	if err != nil {
		return 0, fmt.Errorf("wire: ring: restore store %q: %w", name, err)
	}
	c.stores.Replace(name, st)
	return st.Enc().Len(), nil
}

// --- client side ---------------------------------------------------------

// RingDirectory fetches the coordinator's placement directory blob.
func (c *Client) RingDirectory() ([]byte, error) {
	resp, err := c.roundTrip(&request{Op: opRingDirectory})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// RingRepair asks a qbring coordinator to run one targeted anti-entropy
// round for the namespace right now. It returns once the round has been
// attempted; whether any replica actually needed (or accepted) a transfer
// is visible only through the subsequent divergence probes, exactly as
// with the background sweep.
func (c *Client) RingRepair(store string) error {
	_, err := c.roundTrip(&request{Op: opRingRepair, Store: store})
	return err
}

// StoreInfo probes one namespace's replica state on the connected node.
func (c *Client) StoreInfo(store string) (StoreInfo, error) {
	resp, err := c.roundTrip(&request{Op: opStoreInfo, Store: store})
	if err != nil {
		return StoreInfo{}, err
	}
	return resp.Info, nil
}

// StoreSnapshot exports one namespace as a self-contained snapshot blob —
// the unit a lagging or fresh replica is rebuilt from.
func (c *Client) StoreSnapshot(store string) ([]byte, error) {
	resp, err := c.roundTrip(&request{Op: opStoreSnapshot, Store: store})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// StoreRestore installs a snapshot blob as the namespace's new state on
// the connected node, authenticated by the ring token. It returns the
// restored encrypted row count.
func (c *Client) StoreRestore(store string, blob, ringToken []byte) (int, error) {
	resp, err := c.roundTrip(&request{Op: opStoreRestore, Store: store, Blob: blob, RingToken: ringToken})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// RepairAppend appends a tail of encrypted rows to the namespace on the
// connected node iff the replica still holds exactly expectedLen rows
// (the anti-entropy CAS; see storage.EncryptedStore.AppendIfLen),
// authenticated by the ring token. It returns the replica's row count
// after the call — on a CAS miss the error is set and the count tells the
// repairer where the replica actually stands.
func (c *Client) RepairAppend(store string, rows []storage.EncRow, expectedLen int, ringToken []byte) (int, error) {
	batch := make([]EncUpload, len(rows))
	for i, r := range rows {
		batch[i] = EncUpload{TupleCT: r.TupleCT, AttrCT: r.AttrCT, Token: r.Token}
	}
	resp, err := c.roundTrip(&request{Op: opRepairAppend, Store: store, Batch: batch, Have: expectedLen, RingToken: ringToken})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}
