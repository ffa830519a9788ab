package technique

import (
	"errors"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// corruptStore wraps a real store but corrupts what it serves — a
// malicious-cloud / bit-rot injection harness. The honest-but-curious model
// assumes the cloud does not tamper; these tests verify tampering is at
// least *detected* (authenticated encryption), never silently accepted.
type corruptStore struct {
	*storage.EncryptedStore
	corruptAttr  bool
	corruptTuple bool
	failFetch    bool
	shortFetch   bool // Fetch drops the last row it was asked for
	swapFetch    bool // Fetch exchanges the first two rows it returns
	refuseAdd    bool // Add refuses every row, as a remote store does on error
}

func (c *corruptStore) Add(tupleCT, attrCT, token []byte) int {
	if c.refuseAdd {
		return -1
	}
	return c.EncryptedStore.Add(tupleCT, attrCT, token)
}

// AttrColumnSince serves every column pull, the uncached full one (from
// the zero version) included.
func (c *corruptStore) AttrColumnSince(v storage.EncVersion, have int) ([]storage.EncRow, storage.EncVersion, bool, error) {
	rows, cur, delta, err := c.EncryptedStore.AttrColumnSince(v, have)
	if c.corruptAttr {
		for i := range rows {
			rows[i].AttrCT = append([]byte(nil), rows[i].AttrCT...)
			rows[i].AttrCT[0] ^= 0xFF
		}
	}
	return rows, cur, delta, err
}

// FetchBatch routes through the corrupting Fetch so the batched search
// path sees the same injected failures and tampering as the per-query one
// (the embedded store's own FetchBatch would serve pristine rows).
func (c *corruptStore) FetchBatch(addrBatches [][]int) ([][]storage.EncRow, error) {
	out := make([][]storage.EncRow, len(addrBatches))
	for i, addrs := range addrBatches {
		rows, err := c.Fetch(addrs)
		if err != nil {
			return nil, err
		}
		out[i] = rows
	}
	return out, nil
}

func (c *corruptStore) Fetch(addrs []int) ([]storage.EncRow, error) {
	if c.failFetch {
		return nil, errors.New("injected fetch failure")
	}
	rows, err := c.EncryptedStore.Fetch(addrs)
	if err != nil {
		return nil, err
	}
	if c.shortFetch && len(rows) > 0 {
		return rows[:len(rows)-1], nil
	}
	if c.swapFetch && len(rows) > 1 {
		rows[0], rows[1] = rows[1], rows[0]
	}
	if c.corruptTuple {
		out := make([]storage.EncRow, len(rows))
		for i, r := range rows {
			out[i] = r
			out[i].TupleCT = append([]byte(nil), r.TupleCT...)
			out[i].TupleCT[len(out[i].TupleCT)-1] ^= 0xFF
		}
		return out, nil
	}
	return rows, nil
}

// TestShortFetchIsAnError: a fetch answer that drops a row or swaps two is
// refused on every search path — cached or not, through Search and
// SearchBatch — instead of returning fewer payloads than addresses, or
// payloads attributed to the wrong address.
func TestShortFetchIsAnError(t *testing.T) {
	pred := []relation.Value{relation.Int(4)} // five rows
	for name, build := range onStore() {
		for _, mode := range []string{"short", "swap"} {
			for _, form := range []string{"Search", "SearchBatch"} {
				t.Run(name+"/"+mode+"/"+form, func(t *testing.T) {
					cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), shortFetch: mode == "short", swapFetch: mode == "swap"}
					tech, err := build(cs)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tech.Outsource(testRows()); err != nil {
						t.Fatal(err)
					}
					if form == "Search" {
						_, _, err = tech.Search(pred)
					} else {
						_, _, err = tech.SearchBatch([][]relation.Value{pred})
					}
					if err == nil {
						t.Fatalf("a %s fetch answer was accepted", mode)
					}
				})
			}
		}
	}
}

// TestOutsourceReportsARefusedAdd: a row the store refuses fails the
// Outsource of every technique that uploads through Add, instead of
// leaving a hole that no search can find.
func TestOutsourceReportsARefusedAdd(t *testing.T) {
	for name, build := range onStore() {
		t.Run(name, func(t *testing.T) {
			tech, err := build(&corruptStore{EncryptedStore: storage.NewEncryptedStore(), refuseAdd: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tech.Outsource(testRows()); !errors.Is(err, errAddRefused) {
				t.Fatalf("Outsource over a refusing store = %v, want errAddRefused", err)
			}
		})
	}
}

func TestNoIndDetectsTamperedAttrColumn(t *testing.T) {
	cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), corruptAttr: true}
	tech, err := NewNoIndOn(testKeys(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tech.Search([]relation.Value{relation.Int(1)}); err == nil {
		t.Fatal("tampered attribute column accepted")
	}
}

func TestNoIndDetectsTamperedTuples(t *testing.T) {
	cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), corruptTuple: true}
	tech, err := NewNoIndOn(testKeys(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tech.Search([]relation.Value{relation.Int(1)}); err == nil {
		t.Fatal("tampered tuples accepted")
	}
}

func TestNoIndPropagatesFetchFailure(t *testing.T) {
	cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), failFetch: true}
	tech, err := NewNoIndOn(testKeys(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tech.Search([]relation.Value{relation.Int(1)}); err == nil {
		t.Fatal("fetch failure swallowed")
	}
}

func TestDetIndexDetectsTamperedTuples(t *testing.T) {
	cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), corruptTuple: true}
	tech, err := NewDetIndexOn(testKeys(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tech.Search([]relation.Value{relation.Int(1)}); err == nil {
		t.Fatal("tampered tuples accepted")
	}
}

func TestArxDetectsTamperedTuples(t *testing.T) {
	cs := &corruptStore{EncryptedStore: storage.NewEncryptedStore(), corruptTuple: true}
	tech, err := NewArxOn(testKeys(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tech.Outsource(testRows()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tech.Search([]relation.Value{relation.Int(1)}); err == nil {
		t.Fatal("tampered tuples accepted")
	}
}
