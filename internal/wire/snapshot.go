package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/storage"
)

// snapshot is the serialised cloud state — every namespace. Only
// cloud-visible data is persisted — clear-text tuples and opaque
// ciphertexts — never owner secrets, so a stolen snapshot is no worse
// than a compromised cloud, which the threat model already assumes.
//
// Save and Restore take the cloud-level write lock, so they are exclusive
// against every op in flight on the concurrent per-connection
// dispatchers across all namespaces.
type snapshot struct {
	// Version is the ProtocolVersion of the server that saved the
	// snapshot (>= 2: the namespaced layout). The protocol-v1 single-store
	// layout had no stamp (and no Stores): no server since has written it,
	// it no longer decodes, and whatever does decode to Version 0 is
	// refused by Restore rather than guessed at.
	Version int
	Stores  []storeSnapshot
}

// storeSnapshot is one namespace's serialised state.
type storeSnapshot struct {
	Name     string
	HasPlain bool
	Schema   relation.Schema
	Tuples   []relation.Tuple
	Attr     string
	Enc      []storage.EncRow
	// OwnerHash is the hash of the namespace's control-plane owner token
	// (nil when unclaimed) — the hash, never the token, so a stolen
	// snapshot confers no admin rights. Absent in older snapshots, which
	// restore as unclaimed (gob leaves the field nil).
	OwnerHash []byte
	// EncVersionN is the namespace's write counter at save time; restore
	// raises the rebuilt store's counter to at least this value so a
	// restored namespace never reports a version older than one it already
	// served. The version epoch is deliberately NOT persisted: a restore
	// can lose post-snapshot writes, so the rebuilt store draws a fresh
	// epoch and every owner-side cache revalidates from scratch.
	EncVersionN uint64
	// HasWorkerCap/WorkerCap persist a per-namespace admission override
	// (opAdminSetWorkers) across restarts. Absent in older snapshots
	// (restores with no override).
	HasWorkerCap bool
	WorkerCap    int
}

// Save serialises the state of every hosted namespace.
func (c *Cloud) Save(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := snapshot{Version: ProtocolVersion}
	for _, name := range c.stores.Names() {
		if st, ok := c.stores.Get(name); ok {
			snap.Stores = append(snap.Stores, storeSnapshotOf(c, name, st))
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("wire: snapshot save: %w", err)
	}
	return nil
}

// storeSnapshotOf builds one namespace's storeSnapshot, the one migration
// unit of snapshot files and replica restores. It reads both partitions
// through their concurrency-safe snapshots, so it is correct under the
// shared cloud lock as well as under Save's exclusive one.
func storeSnapshotOf(c *Cloud, name string, st *storage.Store) storeSnapshot {
	v, _ := st.Enc().EncVersion()
	ss := storeSnapshot{Name: name, Enc: st.Enc().Rows(), OwnerHash: st.OwnerHash(), EncVersionN: v.N}
	if ps := st.Plain(); ps != nil {
		ss.HasPlain = true
		ss.Schema, ss.Tuples = ps.SnapshotTuples()
		ss.Attr = ps.Attr()
	}
	ss.WorkerCap, ss.HasWorkerCap = c.workerOverride(name)
	return ss
}

// SaveFile writes the snapshot to path atomically: the state is written
// to a sibling temporary file (uniquely named, so a periodic snapshot
// loop and a shutdown save racing each other never interleave writes
// into one file), synced, and renamed into place — a crash at any point
// leaves either the previous complete snapshot or a new one, never a
// torn file.
func (c *Cloud) SaveFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wire: snapshot save: %w", err)
	}
	tmp := f.Name()
	err = c.Save(f)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wire: snapshot save: %w", err)
	}
	return nil
}

// materialiseStore rebuilds one namespace's live store from its
// serialised form — the shared path of file restore and ring replica
// restore. The rebuilt store's epoch is fresh (rebirth invalidates every
// owner-side cache); only the version-counter floor carries over.
func materialiseStore(ss storeSnapshot) (*storage.Store, error) {
	st := storage.NewStore()
	if ss.HasPlain {
		rel := relation.New(ss.Schema)
		for _, t := range ss.Tuples {
			if err := rel.Append(t); err != nil {
				return nil, err
			}
		}
		ps, err := storage.NewPlainStore(rel, ss.Attr)
		if err != nil {
			return nil, err
		}
		st.SetPlain(ps)
	}
	for _, row := range ss.Enc {
		st.Enc().Add(row.TupleCT, row.AttrCT, row.Token)
	}
	st.Enc().SetVersionFloor(ss.EncVersionN)
	st.ClaimOwner(ss.OwnerHash)
	return st, nil
}

// Restore replaces the entire cloud state — all namespaces — with a
// previously saved snapshot. A pre-namespace (protocol-v1) snapshot is
// refused and leaves the live state intact.
func (c *Cloud) Restore(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("wire: snapshot restore: %w", err)
	}
	if snap.Version == 0 {
		return errors.New("wire: snapshot restore: pre-namespace snapshot (no version stamp: written by a protocol-v1 server), refusing to guess its layout")
	}
	stores := snap.Stores

	// Materialise every store before touching the live registry, so a bad
	// snapshot leaves the current state (all namespaces) intact.
	rebuilt := make(map[string]*storage.Store, len(stores))
	for _, ss := range stores {
		st, err := materialiseStore(ss)
		if err != nil {
			return fmt.Errorf("wire: snapshot restore: store %q: %w", ss.Name, err)
		}
		rebuilt[storeName(ss.Name)] = st
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores.Reset()
	for name, st := range rebuilt {
		c.stores.Set(name, st)
	}
	// Admission overrides describe namespaces, which the snapshot just
	// replaced wholesale: clear them all, then reapply the persisted ones.
	c.storeSemMu.Lock()
	for name := range c.workerOverrides {
		delete(c.workerOverrides, name)
	}
	c.overrideCount.Store(0)
	c.storeSemMu.Unlock()
	for _, ss := range stores {
		if ss.HasWorkerCap {
			c.SetStoreWorkersFor(ss.Name, ss.WorkerCap)
		}
	}
	c.storeSemMu.Lock()
	for name, sem := range c.storeSems {
		sem.setCap(c.effectiveWorkersLocked(name))
	}
	c.storeSemMu.Unlock()
	// The op counters describe the replaced state; restart them with it.
	c.statsMu.Lock()
	c.opCounts = make(map[string]*atomic.Uint64)
	c.condCounts = make(map[string]*atomic.Uint64)
	c.statsMu.Unlock()
	return nil
}
