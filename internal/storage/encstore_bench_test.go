package storage

import (
	"fmt"
	"sync"
	"testing"
)

// encReader is the read surface both implementations share.
type encReader interface {
	Fetch(addrs []int) ([]EncRow, error)
	LookupToken(tok []byte) []int
	Len() int
}

// rwmutexStore replicates the pre-shard EncryptedStore (one RWMutex over
// rows and token index) as the benchmark baseline, so the before/after of
// the sharded read path stays measurable in one run.
type rwmutexStore struct {
	mu       sync.RWMutex
	rows     []EncRow
	tokenIdx map[string][]int
}

func newRWMutexStore() *rwmutexStore {
	return &rwmutexStore{tokenIdx: make(map[string][]int)}
}

func (s *rwmutexStore) Add(tupleCT, attrCT, token []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr := len(s.rows)
	s.rows = append(s.rows, EncRow{Addr: addr, TupleCT: tupleCT, AttrCT: attrCT, Token: token})
	if token != nil {
		k := string(token)
		s.tokenIdx[k] = append(s.tokenIdx[k], addr)
	}
	return addr
}

func (s *rwmutexStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

func (s *rwmutexStore) Fetch(addrs []int) ([]EncRow, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]EncRow, 0, len(addrs))
	for _, a := range addrs {
		if a < 0 || a >= len(s.rows) {
			return nil, fmt.Errorf("storage: address %d out of range [0,%d)", a, len(s.rows))
		}
		out = append(out, s.rows[a])
	}
	return out, nil
}

func (s *rwmutexStore) LookupToken(tok []byte) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tokenIdx[string(tok)]
}

// BenchmarkEncStoreParallelReads measures the encrypted store's hot read
// path — one Fetch of 8 addresses plus one LookupToken and one Len per
// iteration — under RunParallel, comparing the sharded/lock-free store
// against the pre-shard single-RWMutex baseline. This is the store-level
// view of ROADMAP open item 1 (parallel searches contending on one
// RWMutex); the end-to-end effect on QueryBatch appears at high worker
// counts on multi-core hosts.
func BenchmarkEncStoreParallelReads(b *testing.B) {
	const rows = 4096
	seedStore := func(add func(t, a, tok []byte) int) {
		for i := 0; i < rows; i++ {
			add([]byte("tuple-ct"), []byte("attr-ct"), []byte(fmt.Sprintf("tok-%d", i%64)))
		}
	}
	run := func(b *testing.B, s encReader) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			addrs := make([]int, 8)
			i := 0
			for pb.Next() {
				for j := range addrs {
					addrs[j] = (i*97 + j*31) % rows
				}
				if _, err := s.Fetch(addrs); err != nil {
					b.Fatal(err)
				}
				_ = s.LookupToken([]byte(fmt.Sprintf("tok-%d", i%64)))
				_ = s.Len()
				i++
			}
		})
	}
	b.Run("sharded", func(b *testing.B) {
		s := NewEncryptedStore()
		seedStore(s.Add)
		run(b, s)
	})
	b.Run("rwmutex-baseline", func(b *testing.B) {
		s := newRWMutexStore()
		seedStore(s.Add)
		run(b, s)
	})
}
