package wire

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// encFill appends n rows with the given attribute-ciphertext size to a
// store view and flushes them.
func encFill(t *testing.T, v *StoreClient, n, attrSize int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ct := []byte{byte(i)}
		attr := bytes.Repeat([]byte{byte(i)}, attrSize)
		if a := v.Add(ct, attr, nil); a < 0 {
			t.Fatalf("add %d failed: %v", i, v.Err())
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestCondPullProtocol drives opEncVersion/opEncAttrColumnIf over a real
// connection through every branch of the delta contract: first pull from
// a zero version is a full resend, revalidation at the current version is
// a tiny not-modified frame, a write turns the next revalidation into a
// tail-only delta, and a foreign epoch or nonsensical have falls back to
// a full resend.
func TestCondPullProtocol(t *testing.T) {
	_, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := c.WithStore("cond")
	encFill(t, v, 3, 4)

	// Cold client: zero version, nothing held -> full resend.
	rows, cur, delta, err := v.AttrColumnSince(storage.EncVersion{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delta {
		t.Fatal("zero-version pull answered as a delta")
	}
	if len(rows) != 3 || cur.Epoch == 0 || cur.N == 0 {
		t.Fatalf("full pull = %d rows, version %+v", len(rows), cur)
	}

	// Revalidation at the current version: not modified, no rows.
	rows2, cur2, delta, err := v.AttrColumnSince(cur, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !delta || len(rows2) != 0 || cur2 != cur {
		t.Fatalf("revalidate = %d rows, delta=%v, version %+v (want empty delta at %+v)",
			len(rows2), delta, cur2, cur)
	}

	// Two writes later the same revalidation yields exactly the tail.
	encFill(t, v, 2, 4)
	tail, cur3, delta, err := v.AttrColumnSince(cur, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if !delta || len(tail) != 2 || tail[0].Addr != 3 || tail[1].Addr != 4 {
		t.Fatalf("delta after 2 adds = %+v (delta=%v)", tail, delta)
	}
	if cur3.Epoch != cur.Epoch || cur3.N <= cur.N {
		t.Fatalf("version after adds = %+v, want same epoch, larger N than %+v", cur3, cur)
	}

	// A foreign epoch (another store instance, or a restored cloud) can
	// never validate: full resend, delta=false.
	alien := storage.EncVersion{Epoch: cur.Epoch + 1, N: cur.N}
	full, _, delta, err := v.AttrColumnSince(alien, 5)
	if err != nil {
		t.Fatal(err)
	}
	if delta || len(full) != 5 {
		t.Fatalf("foreign-epoch pull = %d rows, delta=%v, want 5-row full resend", len(full), delta)
	}

	// Claiming more rows than exist is self-correcting, not an error.
	full, _, delta, err = v.AttrColumnSince(cur3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if delta || len(full) != 5 {
		t.Fatalf("overlong have = %d rows, delta=%v, want full resend", len(full), delta)
	}

	// RowsSince follows the same contract and carries full rows.
	frows, fcur, delta, err := v.RowsSince(storage.EncVersion{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delta || len(frows) != 5 || len(frows[0].TupleCT) == 0 {
		t.Fatalf("RowsSince full pull = %+v (delta=%v)", frows, delta)
	}
	none, _, delta, err := v.RowsSince(fcur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !delta || len(none) != 0 {
		t.Fatalf("RowsSince revalidate = %d rows, delta=%v", len(none), delta)
	}
}

// TestCondVersionMatchesEncVersion: the version returned by a conditional
// pull is the one opEncVersion reports, so a client may interleave cheap
// version probes with pulls and the two never disagree on epoch.
func TestCondVersionMatchesEncVersion(t *testing.T) {
	_, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := c.WithStore("probe")
	encFill(t, v, 2, 4)

	probe, err := v.EncVersion()
	if err != nil {
		t.Fatal(err)
	}
	_, cur, _, err := v.AttrColumnSince(storage.EncVersion{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if probe != cur {
		t.Fatalf("EncVersion %+v != pull version %+v", probe, cur)
	}
}

// TestCondChunkedDelta: a delta big enough to stream in multiple frames
// still carries the version fields (the client keeps the first chunk's
// values) and reassembles the tail exactly.
func TestCondChunkedDelta(t *testing.T) {
	_, addr := startCloudListener(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := c.WithStore("chunky")

	// Base rows, then a tail well above chunkTarget (256 KiB): 12 rows of
	// 40 KiB attribute ciphertext stream as at least two frames.
	encFill(t, v, 2, 8)
	base, cur, _, err := v.AttrColumnSince(storage.EncVersion{}, 0)
	if err != nil || len(base) != 2 {
		t.Fatalf("base pull = %d rows, %v", len(base), err)
	}
	const tailRows, attrSize = 12, 40 << 10
	encFill(t, v, tailRows, attrSize)

	tail, cur2, delta, err := v.AttrColumnSince(cur, len(base))
	if err != nil {
		t.Fatal(err)
	}
	if !delta || len(tail) != tailRows {
		t.Fatalf("chunked delta = %d rows, delta=%v, want %d-row delta", len(tail), delta, tailRows)
	}
	if cur2.Epoch != cur.Epoch || cur2.N != cur.N+tailRows {
		t.Fatalf("chunked delta version = %+v, want epoch %d, N %d", cur2, cur.Epoch, cur.N+tailRows)
	}
	for i, r := range tail {
		if r.Addr != 2+i || len(r.AttrCT) != attrSize {
			t.Fatalf("tail row %d = addr %d, %d attr bytes", i, r.Addr, len(r.AttrCT))
		}
	}
}

// TestCondAcrossRestore: a snapshot restore rebirths every namespace
// under a fresh epoch, so a client cache validated against the old cloud
// gets a full resend — never a bogus "not modified" — and the restored
// version counts the re-added rows.
func TestCondAcrossRestore(t *testing.T) {
	cl1 := NewCloud()
	c1 := startCloudOn(t, cl1)
	v1 := c1.WithStore("persist")
	encFill(t, v1, 4, 4)
	_, old, _, err := v1.AttrColumnSince(storage.EncVersion{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cl1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cl2 := NewCloud()
	if err := cl2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	c2 := startCloudOn(t, cl2)
	v2 := c2.WithStore("persist")

	rows, cur, delta, err := v2.AttrColumnSince(old, 4)
	if err != nil {
		t.Fatal(err)
	}
	if delta {
		t.Fatal("restored cloud validated a pre-restore cache")
	}
	if len(rows) != 4 {
		t.Fatalf("post-restore full resend = %d rows, want 4", len(rows))
	}
	if cur.Epoch == old.Epoch || cur.Epoch == 0 {
		t.Fatalf("restored epoch %d not fresh (old %d)", cur.Epoch, old.Epoch)
	}
	if cur.N != 4 {
		t.Fatalf("restored version N=%d, want the 4 re-added rows", cur.N)
	}
}

// TestVersionCountsRows pins what every reader of a namespace's version
// relies on: once writes stop, EncVersion().N equals the row count, after
// every kind of write — a local Add, batched flushes over the wire, a
// repair append (and a refused one), a state-file restore and a ring
// replica restore.
func TestVersionCountsRows(t *testing.T) {
	ringTok := []byte("version ring token")
	cloud := func() (*Cloud, *Client) {
		cl := NewCloud()
		cl.SetRingToken(ringTok)
		return cl, startCloudOn(t, cl)
	}
	check := func(stage string, c *Client, want int) {
		t.Helper()
		info, err := c.StoreInfo("ns")
		if err != nil {
			t.Fatal(err)
		}
		if info.EncRows != want || info.VerN != uint64(want) {
			t.Fatalf("%s: %d rows at N = %d, want both %d", stage, info.EncRows, info.VerN, want)
		}
	}

	cl, c := cloud()
	cl.stores.GetOrCreate("ns").Enc().Add([]byte("local"), nil, []byte("tok"))
	check("local Add", c, 1)
	v := c.WithStore("ns")
	encFill(t, v, 3, 2)
	check("one flush", c, 4)
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			v.Add([]byte{byte(i)}, nil, nil)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	check("batched flushes", c, 14)

	tail := []storage.EncRow{{TupleCT: []byte("r0")}, {TupleCT: []byte("r1"), Token: []byte("tok")}}
	if _, err := c.RepairAppend("ns", tail, 13, ringTok); err == nil {
		t.Fatal("repair append at a stale length succeeded")
	}
	check("refused repair append", c, 14)
	if n, err := c.RepairAppend("ns", tail, 14, ringTok); err != nil || n != 16 {
		t.Fatalf("repair append = %d, %v; want 16 rows", n, err)
	}
	check("repair append", c, 16)

	var state bytes.Buffer
	if err := cl.Save(&state); err != nil {
		t.Fatal(err)
	}
	restored, rc := cloud()
	if err := restored.Restore(&state); err != nil {
		t.Fatal(err)
	}
	check("Cloud.Restore", rc, 16)

	blob, err := c.StoreSnapshot("ns")
	if err != nil {
		t.Fatal(err)
	}
	_, replica := cloud()
	if _, err := replica.StoreRestore("ns", blob, ringTok); err != nil {
		t.Fatal(err)
	}
	check("restoreStore", replica, 16)
}

// TestCondHitsCounted: delta-served conditional pulls increment the
// namespace's CondHits stat (surfaced through qbadmin), full resends do
// not.
func TestCondHitsCounted(t *testing.T) {
	c := startCloudOn(t, NewCloud())
	master := []byte("cond stats master")
	loadTenant(t, c, "tenant", master)
	tok := OwnerToken(master, "tenant")
	v := c.WithStore("tenant")

	s0, err := c.AdminStats("tenant", tok)
	if err != nil {
		t.Fatal(err)
	}
	_, cur, _, err := v.AttrColumnSince(storage.EncVersion{}, 0) // full resend
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.AdminStats("tenant", tok)
	if err != nil {
		t.Fatal(err)
	}
	if s1.CondHits != s0.CondHits {
		t.Fatalf("full resend counted as a cond hit: %d -> %d", s0.CondHits, s1.CondHits)
	}
	for i := 0; i < 3; i++ { // three not-modified revalidations
		if _, _, delta, err := v.AttrColumnSince(cur, 5); err != nil || !delta {
			t.Fatalf("revalidate %d: delta=%v, %v", i, delta, err)
		}
	}
	s2, err := c.AdminStats("tenant", tok)
	if err != nil {
		t.Fatal(err)
	}
	if s2.CondHits != s1.CondHits+3 {
		t.Fatalf("CondHits = %d after 3 delta pulls, want %d", s2.CondHits, s1.CondHits+3)
	}
}
