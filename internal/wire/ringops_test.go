package wire

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// startCloudWith is startCloud with access to the Cloud before Serve, for
// ring-plane configuration (directory provider, ring token).
func startCloudWith(t *testing.T, setup func(*Cloud)) *Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCloud()
	if setup != nil {
		setup(cl)
	}
	go func() { _ = cl.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// populateRingStore loads a small plain partition and uploads enc rows
// into the named namespace, claiming it with tok.
func populateRingStore(t *testing.T, c *Client, name string, tok []byte, encRows int) {
	t.Helper()
	sc := c.WithStore(name)
	sc.SetAdminToken(tok)
	rel := relation.New(relation.MustSchema("T",
		relation.Column{Name: "K", Kind: relation.KindInt},
	))
	for i := 0; i < 10; i++ {
		rel.MustInsert(relation.Int(int64(i)))
	}
	if err := sc.Load(rel, "K"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < encRows; i++ {
		if addr := sc.Add([]byte{byte(i), 1}, []byte{byte(i), 2}, []byte{byte(i % 3)}); addr != i {
			t.Fatalf("Add row %d: addr = %d", i, addr)
		}
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRingDirectoryOp: every fetch, the repeat included, serves the
// provider's blob whole, and servers without a provider refuse the op.
func TestRingDirectoryOp(t *testing.T) {
	blob := []byte("directory-blob-v7")
	c := startCloudWith(t, func(cl *Cloud) {
		cl.SetRingDirectory(func() []byte { return blob })
	})
	for i := 0; i < 2; i++ {
		if got, err := c.RingDirectory(); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("fetch #%d = (%q, %v), want %q", i, got, err, blob)
		}
	}

	plain := startCloud(t)
	if _, err := plain.RingDirectory(); err == nil {
		t.Fatal("directory fetch from a non-coordinator succeeded")
	}
}

// TestStoreInfoOp: probes report existence, counts, version and claim —
// and never materialise the namespace they probe.
func TestStoreInfoOp(t *testing.T) {
	c := startCloud(t)
	info, err := c.StoreInfo("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if info.Exists {
		t.Fatalf("phantom store exists: %+v", info)
	}
	// The probe must not have created it.
	names, err := c.AdminList()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("StoreInfo materialised stores: %v", names)
	}

	tok := OwnerToken([]byte("master"), "ns")
	populateRingStore(t, c, "ns", tok, 4)
	info, err = c.StoreInfo("ns")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Exists || info.EncRows != 4 || info.PlainTuples != 10 || !info.Claimed {
		t.Fatalf("StoreInfo = %+v", info)
	}
	if info.VerEpoch == 0 || info.VerN != 4 {
		t.Fatalf("StoreInfo version = (%d, %d), want nonzero epoch and N=4", info.VerEpoch, info.VerN)
	}
}

// TestStoreSnapshotRestore: a snapshot from one node restored onto
// another yields an equivalent replica (rows, plain partition, claim),
// with a fresh epoch and a counter equal to its rows.
func TestStoreSnapshotRestore(t *testing.T) {
	ringTok := []byte("cluster-secret")
	src := startCloudWith(t, func(cl *Cloud) { cl.SetRingToken(ringTok) })
	dst := startCloudWith(t, func(cl *Cloud) { cl.SetRingToken(ringTok) })

	tok := OwnerToken([]byte("master"), "ns")
	populateRingStore(t, src, "ns", tok, 6)

	blob, err := src.StoreSnapshot("ns")
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.StoreRestore("ns", blob, ringTok)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("restore reported %d rows, want 6", n)
	}

	srcInfo, _ := src.StoreInfo("ns")
	dstInfo, err := dst.StoreInfo("ns")
	if err != nil {
		t.Fatal(err)
	}
	if !dstInfo.Exists || dstInfo.EncRows != srcInfo.EncRows ||
		dstInfo.PlainTuples != srcInfo.PlainTuples || dstInfo.Claimed != srcInfo.Claimed {
		t.Fatalf("restored replica %+v != source %+v", dstInfo, srcInfo)
	}
	if dstInfo.VerEpoch == srcInfo.VerEpoch {
		t.Fatal("restored replica shares the source's epoch; restores must draw a fresh one")
	}
	if dstInfo.VerN != uint64(dstInfo.EncRows) {
		t.Fatalf("restored version N = %d, want its %d rows", dstInfo.VerN, dstInfo.EncRows)
	}

	// Replica content equality, row by row.
	srcRows := src.WithStore("ns").Rows()
	dstRows := dst.WithStore("ns").Rows()
	if len(srcRows) != len(dstRows) {
		t.Fatalf("row counts diverge: %d vs %d", len(srcRows), len(dstRows))
	}
	for i := range srcRows {
		if srcRows[i].Addr != dstRows[i].Addr || !bytes.Equal(srcRows[i].TupleCT, dstRows[i].TupleCT) ||
			!bytes.Equal(srcRows[i].AttrCT, dstRows[i].AttrCT) || !bytes.Equal(srcRows[i].Token, dstRows[i].Token) {
			t.Fatalf("row %d diverges", i)
		}
	}
	// The owner claim travelled: the same owner token must be accepted on
	// the replica, a different one refused.
	if _, err := dst.AdminStats("ns", tok); err != nil {
		t.Fatalf("owner token refused on restored replica: %v", err)
	}
	if _, err := dst.AdminStats("ns", OwnerToken([]byte("other"), "ns")); err == nil {
		t.Fatal("wrong owner token accepted on restored replica")
	}
}

// TestRingTokenGuard: restore and repair-append are refused without the
// ring token, with an empty or wrong token, and on servers with none
// configured; the right token is accepted.
func TestRingTokenGuard(t *testing.T) {
	ringTok := []byte("cluster-secret")
	src := startCloudWith(t, func(cl *Cloud) { cl.SetRingToken(ringTok) })
	tok := OwnerToken([]byte("master"), "ns")
	populateRingStore(t, src, "ns", tok, 2)
	blob, err := src.StoreSnapshot("ns")
	if err != nil {
		t.Fatal(err)
	}

	guarded := startCloudWith(t, func(cl *Cloud) { cl.SetRingToken(ringTok) })
	if _, err := guarded.StoreRestore("ns", blob, nil); err == nil {
		t.Fatal("restore without ring token succeeded")
	}
	if _, err := guarded.StoreRestore("ns", blob, []byte("wrong")); err == nil {
		t.Fatal("restore with wrong ring token succeeded")
	}
	if _, err := guarded.StoreRestore("ns", blob, []byte{}); err == nil {
		t.Fatal("restore with an empty ring token succeeded")
	}
	if _, err := guarded.RepairAppend("ns", src.WithStore("ns").Rows(), 0, []byte("wrong")); err == nil {
		t.Fatal("repair append with wrong ring token succeeded")
	}
	if _, err := guarded.StoreRestore("ns", blob, ringTok); err != nil {
		t.Fatalf("restore with the right ring token: %v", err)
	}

	unguarded := startCloud(t)
	if _, err := unguarded.StoreRestore("ns", blob, ringTok); err == nil {
		t.Fatal("restore on a server without a ring token succeeded")
	}
}

// TestRepairAppend: the tail CAS — appends land only when the replica
// holds exactly the expected row count, and a miss reports the actual
// count without mutating anything.
func TestRepairAppend(t *testing.T) {
	ringTok := []byte("cluster-secret")
	cloud := startCloudWith(t, func(cl *Cloud) { cl.SetRingToken(ringTok) })
	tok := OwnerToken([]byte("master"), "ns")
	populateRingStore(t, cloud, "ns", tok, 3)

	// A well-formed tail at the right length.
	tail := src3Rows(3, 2)
	n, err := cloud.RepairAppend("ns", tail, 3, ringTok)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("repair append: len = %d, want 5", n)
	}
	if got := cloud.WithStore("ns").Len(); got != 5 {
		t.Fatalf("store len after repair = %d, want 5", got)
	}
	// The appended rows are addressable and token-indexed.
	rows, err := cloud.WithStore("ns").Fetch([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !bytes.Equal(rows[0].TupleCT, tail[0].TupleCT) {
		t.Fatalf("repaired rows not addressable: %+v", rows)
	}

	// CAS miss: wrong expected length is refused and reports the truth.
	if _, err := cloud.RepairAppend("ns", src3Rows(9, 1), 3, ringTok); err == nil {
		t.Fatal("repair append with stale expected length succeeded")
	}
	if got := cloud.WithStore("ns").Len(); got != 5 {
		t.Fatalf("failed CAS mutated the store: len = %d, want 5", got)
	}

	// Unknown store: repair cannot create replicas.
	if _, err := cloud.RepairAppend("nope", src3Rows(0, 1), 0, ringTok); err == nil {
		t.Fatal("repair append into unknown store succeeded")
	}
	// Malformed rows are refused before touching the store.
	bad := src3Rows(5, 1)
	bad[0].TupleCT = nil
	if _, err := cloud.RepairAppend("ns", bad, 5, ringTok); err == nil {
		t.Fatal("repair append with empty tuple ciphertext succeeded")
	}
}

// src3Rows builds n distinct well-formed enc rows starting at a marker.
func src3Rows(start, n int) []storage.EncRow {
	rows := make([]storage.EncRow, n)
	for i := range rows {
		rows[i] = storage.EncRow{
			TupleCT: []byte(fmt.Sprintf("tuple-%d", start+i)),
			AttrCT:  []byte(fmt.Sprintf("attr-%d", start+i)),
			Token:   []byte{byte((start + i) % 3)},
		}
	}
	return rows
}
