package technique

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/storage"
)

// DefaultCacheBytes is the byte budget a Cache gets when the caller does
// not pick one. It bounds the accounted size of every segment together
// (column ciphertext bytes, payload plaintexts, token memos, clear-text
// bins), so one owner process holds at most this much cached state per
// store regardless of how large the outsourced relation grows.
const DefaultCacheBytes = 64 << 20

// Cache is the owner-side cross-query cache that kills the per-query
// column pull and bin resend. It holds four segments under one byte
// budget:
//
//   - the decrypted searchable-attribute column (NoInd), held as a value ->
//     column positions index beside the cells' cloud addresses, revalidated
//     each query by the store's version counter (AttrColumnSince) — a
//     tiny not-modified round trip replaces the full column transfer, and
//     matching a predicate costs its posting lists, not the column;
//   - decrypted tuple payloads by cloud address, valid for one store epoch
//     (addresses are stable within an epoch: the store is append-only);
//   - DetIndex token→address memos, valid at one exact version;
//   - clear-text bin answers by bin values, revalidated per query by a
//     conditional bin search at their store's (epoch, length); the owner
//     fills this segment (SearchBin) and drops it when it re-bins.
//
// Safety: every segment is revalidated against the store before use — the
// cache never turns a stale answer into a fresh-looking one. A version
// epoch changes whenever a store is rebuilt (restore from snapshot, drop
// and re-create), so state that silently lost writes can never match a
// held version. Within an epoch, "not modified" answers are produced
// under the store's publish-then-bump ordering, so a confirmed version is
// never fresher than the data it vouches for.
//
// A Cache is safe for concurrent use: readers snapshot a segment under the
// mutex, do their round trips and decryption unlocked, and publish what
// they learned under the mutex again (the column by appending the
// decrypted tail, the other segments last-writer-wins). Cached slices and
// payloads are shared read-only; callers must not mutate what they get
// back (the technique API already hands decrypted payloads out as
// owner-owned read-only data — SearchBatch shares one decryption across
// queries the same way).
type Cache struct {
	mu       sync.Mutex
	maxBytes int

	// Column segment; nil when nothing is cached. Its fields are read and
	// written under mu only, also through a pointer a reader still holds
	// after eviction.
	col *column

	// Payload segment: cloud address -> decrypted tuple payload, valid for
	// payEpoch only. FIFO-evicted under the byte budget.
	payEpoch uint64
	pay      map[int]payEntry
	payOrder []int
	payBytes int

	// Memo segment (DetIndex): deterministic token -> matching addresses,
	// valid at exactly memoVer (any write may change a token's posting
	// list, so memos cannot survive a version bump).
	memoVer   storage.EncVersion
	memo      map[string][]int
	memoBytes int

	// Bin segment: encoded bin values -> held answer; dropped whole.
	bins     map[string]heldBin
	binBytes int

	hits       atomic.Uint64
	misses     atomic.Uint64
	bytesSaved atomic.Uint64
}

// column is the decrypted attribute column of one store epoch, kept as an
// inverted index: idx maps a value to the ascending column positions
// holding it and always covers exactly the len(addrs) cells, addrs[p] is
// the cloud address of position p, and ver is the store version the cells
// were last confirmed at. Both only ever grow by appending (the store is
// append-only within an epoch), so a prefix a reader copied out under the
// lock stays valid after the lock is released. ct is the summed ciphertext
// size of the cells — the wire bytes a revalidation avoids.
type column struct {
	ver   storage.EncVersion
	addrs []int
	idx   map[relation.Value][]int
	ct    int
}

// heldBin is a bin answer, the store (epoch, length) it was searched at
// and its accounted size.
type heldBin struct {
	tuples []relation.Tuple
	epoch  uint64
	n      int
	size   int
}

type payEntry struct {
	pt []byte
	// ctLen is the ciphertext size the cached decryption avoids
	// re-transferring.
	ctLen int
}

// NewCache builds a cache with the given byte budget; maxBytes <= 0 means
// DefaultCacheBytes.
func NewCache(maxBytes int) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{maxBytes: maxBytes, pay: make(map[int]payEntry), memo: make(map[string][]int), bins: make(map[string]heldBin)}
}

// CacheStats is a point-in-time snapshot of a Cache's cumulative effect.
type CacheStats struct {
	// Hits / Misses count revalidations, per query and per clear-text bin:
	// a hit confirmed (or delta-extended) cached state, a miss re-pulled.
	Hits, Misses uint64
	// BytesSaved estimates the wire bytes hits avoided transferring.
	BytesSaved uint64
	// Bytes is the currently accounted size of all segments.
	Bytes int
	// MaxBytes is the configured budget.
	MaxBytes int
}

// Stats snapshots the cache's counters and current footprint.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	bytes := c.bytesLocked()
	max := c.maxBytes
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		BytesSaved: c.bytesSaved.Load(),
		Bytes:      bytes,
		MaxBytes:   max,
	}
}

// recordHit and recordMiss fold one query's outcome into the cumulative
// counters (the per-query Stats carry the same numbers for reports).
func (c *Cache) recordHit(bytesSaved int) {
	c.hits.Add(1)
	if bytesSaved > 0 {
		c.bytesSaved.Add(uint64(bytesSaved))
	}
}

func (c *Cache) recordMiss() { c.misses.Add(1) }

// recordSaved adds avoided wire bytes without counting a hit — used for
// payload reuse, which rides along with whichever column/memo outcome the
// query already recorded.
func (c *Cache) recordSaved(n int) {
	if n > 0 {
		c.bytesSaved.Add(uint64(n))
	}
}

// bytesLocked accounts the column at its ciphertext size, as it always
// was, plus 8 bytes per indexed position and one map entry per distinct
// value.
func (c *Cache) bytesLocked() int {
	n := c.payBytes + c.memoBytes + c.binBytes
	if c.col != nil {
		n += c.col.ct + 8*len(c.col.addrs) + payEntryOverhead*len(c.col.idx)
	}
	return n
}

// rebalanceLocked enforces the byte budget: payload entries go first
// (FIFO — they are per-address and individually droppable), then the memo
// map, then the clear-text bins, then the column with its index.
func (c *Cache) rebalanceLocked() {
	for c.bytesLocked() > c.maxBytes && len(c.payOrder) > 0 {
		addr := c.payOrder[0]
		c.payOrder = c.payOrder[1:]
		if e, ok := c.pay[addr]; ok {
			c.payBytes -= len(e.pt) + payEntryOverhead
			delete(c.pay, addr)
		}
	}
	if c.bytesLocked() > c.maxBytes && c.memoBytes > 0 {
		c.memo = make(map[string][]int)
		c.memoBytes = 0
	}
	if c.bytesLocked() > c.maxBytes && c.binBytes > 0 {
		c.dropBinsLocked()
	}
	if c.bytesLocked() > c.maxBytes {
		c.col = nil
	}
}

// payEntryOverhead approximates the map/bookkeeping cost of one payload
// entry on top of the plaintext bytes.
const payEntryOverhead = 48

// --- column segment ------------------------------------------------------

// colSnapshot returns the cached column, the version and cell count to
// revalidate it with, and the summed ciphertext bytes it stands in for.
func (c *Cache) colSnapshot() (col *column, ver storage.EncVersion, cells, ctBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.col == nil {
		return nil, storage.EncVersion{}, 0, 0
	}
	return c.col, c.col.ver, len(c.col.addrs), c.col.ct
}

// colExtend appends a revalidation's decrypted tail — rows[i] holds vals[i]
// and follows the first have cells — to col and its index; nil starts the
// column of a new epoch. Only what col still lacks is appended, so readers
// racing over the same tail extend it once. The result is published unless
// the cache already holds a longer column of the same epoch, and returned
// either way: a budget too small for the column evicts it at once, and the
// caller still matches through the one it holds.
func (c *Cache) colExtend(col *column, cur storage.EncVersion, have int, rows []storage.EncRow, vals []relation.Value) *column {
	c.mu.Lock()
	defer c.mu.Unlock()
	if col == nil {
		col = &column{idx: make(map[relation.Value][]int)}
	}
	if i := len(col.addrs) - have; i < len(rows) {
		col.ver = cur
		for ; i < len(rows); i++ {
			col.idx[vals[i]] = append(col.idx[vals[i]], len(col.addrs))
			col.addrs = append(col.addrs, rows[i].Addr)
			col.ct += len(rows[i].AttrCT)
		}
	}
	if c.col == nil || c.col.ver.Epoch != cur.Epoch || len(c.col.addrs) < len(col.addrs) {
		c.col = col
	}
	c.rebalanceLocked()
	return col
}

// colMatch returns, in column order, the cloud addresses of those of col's
// first cells cells that hold one of values (nil if none do). cells is the
// count the caller's own revalidation vouched for: positions a concurrent
// reader has appended since are cut off. The posting lists are copied out
// under the lock and put back in column order outside it.
func (c *Cache) colMatch(col *column, cells int, values []relation.Value) []int {
	if col == nil {
		return nil
	}
	c.mu.Lock()
	addrs := col.addrs[:cells]
	var pos []int
	for _, v := range values {
		list := col.idx[v]
		cut, _ := slices.BinarySearch(list, cells)
		pos = append(pos, list[:cut]...)
	}
	c.mu.Unlock()
	if len(pos) == 0 {
		return nil
	}
	out := pos[:0]
	if len(pos) > cells/8 {
		// A range over most of the bins: sorting that many positions would
		// cost more than the column scan this index replaced, marking them
		// and sweeping the cells once does not.
		mark := make([]bool, cells)
		for _, p := range pos {
			mark[p] = true
		}
		for p, m := range mark {
			if m {
				out = append(out, addrs[p])
			}
		}
		return out
	}
	slices.Sort(pos)
	// A value listed twice contributed its positions twice: skip repeats.
	prev := -1
	for _, p := range pos {
		if p != prev {
			out = append(out, addrs[p])
		}
		prev = p
	}
	return out
}

// --- payload segment -----------------------------------------------------

// payloadGet returns the cached decryptions for addrs, aligned with it
// (nil where none is cached; missing counts those), valid for the given
// store epoch, plus the summed ciphertext bytes the hits avoid
// transferring. A mismatched epoch empties the segment: a reborn store may
// have reassigned addresses.
func (c *Cache) payloadGet(epoch uint64, addrs []int) (pts [][]byte, missing, ctSaved int) {
	pts = make([][]byte, len(addrs))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.payEpoch != epoch {
		c.pay = make(map[int]payEntry)
		c.payOrder = nil
		c.payBytes = 0
		c.payEpoch = epoch
	}
	for i, a := range addrs {
		if e := c.pay[a]; e.pt != nil {
			pts[i] = e.pt
			ctSaved += e.ctLen
		} else {
			missing++
		}
	}
	return pts, missing, ctSaved
}

// payloadPut caches one address's decrypted payload for the given epoch.
func (c *Cache) payloadPut(epoch uint64, addr int, pt []byte, ctLen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.payEpoch != epoch {
		c.pay = make(map[int]payEntry)
		c.payOrder = nil
		c.payBytes = 0
		c.payEpoch = epoch
	}
	if _, ok := c.pay[addr]; ok {
		return
	}
	c.pay[addr] = payEntry{pt: pt, ctLen: ctLen}
	c.payOrder = append(c.payOrder, addr)
	c.payBytes += len(pt) + payEntryOverhead
	c.rebalanceLocked()
}

// fetchPayloads serves a cached search's tuple fetch through the payload
// segment: payloadGet's aligned slice is the result as it stands when
// every address is cached (no round trip at all); otherwise only the holes
// are fetched from store, decrypted, cached for the next query and filled
// in — addrs order either way, exactly what the uncached Fetch path
// returns. The Fetch, decryptions and avoided bytes are counted into st; fetched, nil
// when there was no hole, holds the ciphertext size of each payload this
// call transferred (0 where the cache served it) for the caller to
// attribute (Stats.addFetched, or per query in a batch).
func (c *Cache) fetchPayloads(store EncStore, prob *crypto.Probabilistic, st *Stats, epoch uint64, addrs []int) (payloads [][]byte, fetched []int, err error) {
	payloads, missing, ctSaved := c.payloadGet(epoch, addrs)
	if ctSaved > 0 {
		st.CacheBytesSaved += ctSaved
		c.recordSaved(ctSaved)
	}
	if missing == 0 {
		return payloads, nil, nil
	}
	need := make([]int, 0, missing)
	for i, a := range addrs {
		if payloads[i] == nil {
			need = append(need, a)
		}
	}
	st.Rounds++
	rows, err := fetch(store, need)
	if err != nil {
		return nil, nil, err
	}
	fetched = make([]int, len(addrs))
	next := 0
	for i := range addrs {
		if payloads[i] != nil {
			continue
		}
		r := rows[next]
		next++
		pt, err := prob.Decrypt(r.TupleCT)
		if err != nil {
			return nil, nil, fmt.Errorf("technique: cached tuple decrypt addr %d: %w", r.Addr, err)
		}
		st.EncOps++
		c.payloadPut(epoch, r.Addr, pt, len(r.TupleCT))
		payloads[i], fetched[i] = pt, len(r.TupleCT)
	}
	return payloads, fetched, nil
}

// --- memo segment --------------------------------------------------------

// memoGet returns the memoised address list for a deterministic token,
// valid only if the cache's memo version is exactly cur. ok distinguishes
// a memoised empty posting list from a memo miss.
func (c *Cache) memoGet(cur storage.EncVersion, token string) (addrs []int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memoVer != cur {
		return nil, false
	}
	addrs, ok = c.memo[token]
	return addrs, ok
}

// memoPut memoises one token's posting list at version cur. A version
// change flushes the whole segment first: any write may have changed any
// posting list.
func (c *Cache) memoPut(cur storage.EncVersion, token string, addrs []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memoVer != cur {
		c.memo = make(map[string][]int)
		c.memoBytes = 0
		c.memoVer = cur
	}
	if _, ok := c.memo[token]; ok {
		return
	}
	c.memo[token] = addrs
	c.memoBytes += len(token) + 8*len(addrs) + payEntryOverhead
	c.rebalanceLocked()
}

// --- bin segment ---------------------------------------------------------

// BinSearcher revalidates a bin search (storage.PlainStore.SearchSince)
// remotely and records a failure as its Search does.
type BinSearcher interface {
	SearchSince(values []relation.Value, epoch uint64, have int) (storage.BinAnswer, error)
}

// SearchBin searches a bin through the bin segment: the held answer when
// the store reports it not modified, else the whole bin, held from then
// on. A failure touches nothing held. Callers share the tuples read-only.
func (c *Cache) SearchBin(store BinSearcher, values []relation.Value) ([]relation.Tuple, error) {
	var kb []byte
	for _, v := range values {
		kb = v.AppendEncode(kb)
	}
	key := string(kb)
	c.mu.Lock()
	held := c.bins[key]
	c.mu.Unlock()
	a, err := store.SearchSince(values, held.epoch, held.n)
	if err != nil {
		return nil, err
	}
	if a.NotModified {
		c.recordHit(held.size)
		return held.tuples, nil
	}
	c.recordMiss()
	size := payEntryOverhead + len(key)
	for _, t := range a.Tuples {
		size += payEntryOverhead
		for _, v := range t.Values {
			size += 24 + len(v.Str())
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.binBytes += size - c.bins[key].size
	c.bins[key] = heldBin{tuples: a.Tuples, epoch: a.Epoch, n: a.Len, size: size}
	c.rebalanceLocked()
	return a.Tuples, nil
}

// DropBins empties the bin segment, so bins a new layout dropped do not
// sit in the budget.
func (c *Cache) DropBins() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropBinsLocked()
}

func (c *Cache) dropBinsLocked() {
	c.bins = make(map[string]heldBin)
	c.binBytes = 0
}
