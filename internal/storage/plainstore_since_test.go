package storage

import (
	"sync"
	"testing"

	"repro/internal/relation"
)

// TestPlainSearchSince pins the conditional bin search's five rows: a held
// answer is confirmed only while its epoch is the store's and no searched
// value gained a tuple at or past the held length; every other case
// answers the whole bin, exactly what Search answers.
func TestPlainSearchSince(t *testing.T) {
	ps, err := NewPlainStore(genRelation(t, 50), "K") // K = i % 10
	if err != nil {
		t.Fatal(err)
	}
	bin := []relation.Value{relation.Int(3), relation.Int(7)}
	insert := func(k int64) {
		t.Helper()
		if err := ps.Insert(relation.Tuple{ID: 900 + int(k), Values: []relation.Value{relation.Int(k), relation.Str("p")}}); err != nil {
			t.Fatal(err)
		}
	}
	whole := func(name string, a BinAnswer) {
		t.Helper()
		if a.NotModified || len(a.Tuples) != len(ps.Search(bin)) || a.Len != ps.Len() {
			t.Fatalf("%s: %d tuples, not modified %v, len %d; want the whole bin of %d at length %d",
				name, len(a.Tuples), a.NotModified, a.Len, len(ps.Search(bin)), ps.Len())
		}
	}

	first := ps.SearchSince(bin, 0, 0)
	whole("zero version", first)
	if first.Epoch == 0 || first.Len != 50 {
		t.Fatalf("first answer at (%d, %d), want a nonzero epoch at length 50", first.Epoch, first.Len)
	}

	// Not modified: nothing was inserted.
	if a := ps.SearchSince(bin, first.Epoch, first.Len); !a.NotModified || a.Tuples != nil || a.Len != 50 {
		t.Fatalf("unchanged bin: %+v, want not modified at length 50", a)
	}

	// Unchanged by an insert into another bin, though the length moved.
	insert(4)
	if a := ps.SearchSince(bin, first.Epoch, first.Len); !a.NotModified || a.Len != 51 {
		t.Fatalf("insert into another bin: %+v, want not modified at length 51", a)
	}

	// Modified by an insert into the bin.
	insert(7)
	a := ps.SearchSince(bin, first.Epoch, first.Len)
	whole("insert into the bin", a)
	if len(a.Tuples) != len(first.Tuples)+1 {
		t.Fatalf("insert into the bin: %d tuples, want %d", len(a.Tuples), len(first.Tuples)+1)
	}
	if b := ps.SearchSince(bin, a.Epoch, a.Len); !b.NotModified {
		t.Fatalf("the fresh answer does not revalidate: %+v", b)
	}

	// Epoch mismatch: another store over the same tuples never matches.
	other, err := NewPlainStore(genRelation(t, 50), "K")
	if err != nil {
		t.Fatal(err)
	}
	if b := other.SearchSince(bin, first.Epoch, first.Len); b.NotModified || len(b.Tuples) != len(first.Tuples) || b.Epoch == first.Epoch {
		t.Fatalf("another store's epoch: %+v", b)
	}

	// Have past the length, or below zero, is a miss.
	whole("have past the length", ps.SearchSince(bin, a.Epoch, ps.Len()+1))
	whole("have below zero", ps.SearchSince(bin, a.Epoch, -1))
}

// TestPlainSearchSinceRacingInserts runs conditional searches against
// concurrent inserts (run it under -race). An answer at length n holds
// every tuple of the bin below n, so a confirmation at n can never hide a
// tuple that landed in the bin below n: each reader checks "not modified"
// against the bin's true count below the returned length.
func TestPlainSearchSinceRacingInserts(t *testing.T) {
	ps, err := NewPlainStore(genRelation(t, 20), "K")
	if err != nil {
		t.Fatal(err)
	}
	bin := []relation.Value{relation.Int(3)}
	const writes = 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := ps.SearchSince(bin, 0, 0)
			for {
				select {
				case <-done:
					return
				default:
				}
				a := ps.SearchSince(bin, held.Epoch, held.Len)
				if !a.NotModified {
					held = a
					continue
				}
				// Every tuple below a.Len is in the snapshot below; the held
				// answer must have all of the bin's.
				_, tuples := ps.SnapshotTuples()
				want := 0
				for _, tp := range tuples[:a.Len] {
					if tp.Values[0].Equal(bin[0]) {
						want++
					}
				}
				if len(held.Tuples) != want {
					t.Errorf("not modified at length %d while the bin holds %d tuples below it, the held answer %d", a.Len, want, len(held.Tuples))
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if err := ps.Insert(relation.Tuple{ID: 1000 + i, Values: []relation.Value{relation.Int(int64(i % 4)), relation.Str("w")}}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
