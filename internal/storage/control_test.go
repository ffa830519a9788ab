package storage

import (
	"testing"
	"time"
)

// TestClaimOwner: first claim wins, later and empty claims are ignored.
func TestClaimOwner(t *testing.T) {
	st := NewStore()
	if st.OwnerHash() != nil {
		t.Fatal("fresh store has an owner hash")
	}
	if st.ClaimOwner(nil) {
		t.Fatal("empty claim took effect")
	}
	if !st.ClaimOwner([]byte("hash-a")) {
		t.Fatal("first claim refused")
	}
	if st.ClaimOwner([]byte("hash-b")) {
		t.Fatal("second claim overwrote the owner")
	}
	if got := st.OwnerHash(); string(got) != "hash-a" {
		t.Fatalf("OwnerHash = %q, want hash-a", got)
	}
}

// TestStoreSetDrop: a dropped namespace disappears from the registry, a
// recreated one is fresh (empty, unclaimed), and Drop reports existence.
func TestStoreSetDrop(t *testing.T) {
	ss := NewStoreSet()
	st := ss.GetOrCreate("tenant")
	st.Enc().Add([]byte("ct"), nil, []byte("tok"))
	st.ClaimOwner([]byte("hash"))

	if ss.Drop("missing") {
		t.Fatal("Drop reported success for a namespace that never existed")
	}
	if !ss.Drop("tenant") {
		t.Fatal("Drop reported failure for an existing namespace")
	}
	if _, ok := ss.Get("tenant"); ok {
		t.Fatal("dropped namespace still registered")
	}
	fresh := ss.GetOrCreate("tenant")
	if fresh == st {
		t.Fatal("recreated namespace is the dropped store")
	}
	if fresh.Enc().Len() != 0 || fresh.OwnerHash() != nil {
		t.Fatal("recreated namespace inherited state from the dropped one")
	}
}

// TestStoreSetDropQuiesces: Drop must not return while an operation still
// holds the dropped store's read lock.
func TestStoreSetDropQuiesces(t *testing.T) {
	ss := NewStoreSet()
	st := ss.GetOrCreate("tenant")

	_, _, release := st.ReadView()
	dropped := make(chan struct{})
	go func() {
		ss.Drop("tenant")
		close(dropped)
	}()
	time.Sleep(20 * time.Millisecond) // let Drop reach the quiesce
	select {
	case <-dropped:
		t.Fatal("Drop returned while a read view was still held")
	default:
	}
	release()
	<-dropped
}
