package technique

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// BenchmarkNoIndSearchCached prices one warm cached NoInd search — the
// owner-side work of a `hot-read` read with the wire taken away. Every
// value fills benchRowsPerValue cells, so the cells=… arms ask for the same
// 16 values × 21 rows out of columns 100× apart in size: ns/op flat across
// them is the "does not degrade as data grows" shape. range=all requests
// every value of the 21k column (a QueryRange covering all bins: the
// worst case for putting matches back in column order), and after-append
// outsources one row before each search (the read-after-write path, whose
// cost must follow the delta and not the column).
func BenchmarkNoIndSearchCached(b *testing.B) {
	const preds = 16
	for _, arm := range []struct {
		name   string
		cells  int
		all    bool
		append bool
	}{
		{name: "cells=2k", cells: 2_100},
		{name: "cells=21k", cells: 21_000},
		{name: "cells=200k", cells: 210_000},
		{name: "range=all", cells: 21_000, all: true},
		{name: "after-append", cells: 21_000, append: true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			n, distinct := benchCachedNoInd(b, arm.cells)
			want := preds
			if arm.all {
				want = distinct
			}
			values := make([]relation.Value, want)
			for i := range values {
				values[i] = relation.Int(int64(i * (distinct / want)))
			}
			if _, _, err := n.Search(values); err != nil { // warm column and payloads
				b.Fatal(err)
			}
			extra := []Row{{Payload: []byte("appended row"), Attr: relation.Int(-1)}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if arm.append {
					if _, err := n.Outsource(extra); err != nil {
						b.Fatal(err)
					}
				}
				got, _, err := n.Search(values)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != want*benchRowsPerValue {
					b.Fatalf("search returned %d payloads, want %d", len(got), want*benchRowsPerValue)
				}
			}
		})
	}
}

const benchRowsPerValue = 21

// benchCachedNoInd outsources cells rows — value v in every position p with
// p mod distinct == v, so each posting list is spread over the whole
// column — through a NoInd with a default-budget cache attached.
func benchCachedNoInd(b *testing.B, cells int) (n *NoInd, distinct int) {
	b.Helper()
	n, err := NewNoIndOn(testKeys(), storage.NewEncryptedStore())
	if err != nil {
		b.Fatal(err)
	}
	n.SetCache(NewCache(0))
	distinct = cells / benchRowsPerValue
	rows := make([]Row, cells)
	for p := range rows {
		rows[p] = Row{Payload: []byte(fmt.Sprintf("tuple %07d, padded to a plausible encoded size ........", p)), Attr: relation.Int(int64(p % distinct))}
	}
	if _, err := n.Outsource(rows); err != nil {
		b.Fatal(err)
	}
	return n, distinct
}
