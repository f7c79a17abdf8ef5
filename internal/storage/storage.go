// Package storage holds the materialized view of the transformed data
// frequency distribution Δ̂ and implements the paper's I/O cost model:
// coefficients live in array- or hash-based storage with constant-time
// random access, and the unit of cost is one retrieval per requested
// coefficient (Section 1.3 of the paper). Every store counts retrievals so
// that the experiments can report exactly the quantities the paper reports.
//
// A view is built once and then only read. A store that IsConcurrent reports
// safe — the in-memory base stores among them, which count retrievals
// atomically — takes any number of concurrent readers; a write (Add) needs
// exclusive access, so writes beside readers go through the multi-version
// store (internal/mvcc), which never writes a base it serves. A single run
// retrieves sequentially, matching the paper's model.
package storage

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// Store provides random access to transform coefficients by flat key. It
// has one retrieval method, matching the one storage operation of the
// paper's cost model; the free functions Get, GetCtx and BatchGet adapt it
// for callers that want a single key or no error handling.
type Store interface {
	// BatchGetCtx retrieves the coefficient for keys[i] into dst[i],
	// counting len(keys) retrievals. Missing coefficients are zero (and
	// still cost a retrieval: the engine had to probe storage to learn
	// that). Keys may repeat and appear in any order; len(keys) != len(dst)
	// panics. A key outside the store's domain (negative, or beyond the
	// size of a store that knows its size) and any other per-key failure is
	// reported as a *BatchError listing the failed positions in ascending
	// Index order — positions it does not list hold valid values. Any other
	// non-nil error (including ctx.Err(), which an already-ended context
	// returns before anything is retrieved) means no position of dst may be
	// trusted.
	BatchGetCtx(ctx context.Context, keys []int, dst []float64) error
	// Retrievals returns the number of coefficients retrieved since the
	// last ResetStats.
	Retrievals() int64
	// ResetStats zeroes the retrieval counter.
	ResetStats()
	// NonzeroCount returns the number of nonzero coefficients held.
	NonzeroCount() int
}

// Updatable is a Store that supports incremental maintenance: adding delta
// to a single coefficient, which is how tuple inserts propagate into Δ̂.
type Updatable interface {
	Store
	// Add adds delta to the coefficient at key without counting a retrieval.
	Add(key int, delta float64)
}

// Enumerable is implemented by stores that can iterate their nonzero
// coefficients (for persistence and diagnostics): the base stores, a .wvls
// layout, and an MVCC store or view. Iteration order is unspecified; fn
// returning false stops the walk. Enumeration does not count retrievals.
// A type assertion is the whole test: no wrapper implements the method, so
// a store that has it can enumerate. The layers of a Stack and a session's
// CachedStore forward neither enumeration nor Add: their owner does both on
// the base.
type Enumerable interface {
	ForEachNonzero(fn func(key int, value float64) bool)
}

// concurrencyCapable is the capability check implemented by stores that are,
// or may be, safe for use from multiple goroutines: base stores whose reads
// touch no unsynchronized state answer true, wrappers whose own state is
// synchronized forward the wrapped store's answer.
type concurrencyCapable interface {
	ConcurrentSafe() bool
}

// IsConcurrent reports whether s is safe for use from multiple goroutines.
// The evaluation engine uses it to decide whether retrievals may be issued
// in parallel (Plan.ExactParallelCtx) and CoalescingStore refuses to wrap a
// store that is not.
func IsConcurrent(s Store) bool {
	c, ok := s.(concurrencyCapable)
	return ok && c.ConcurrentSafe()
}

// memoryCapable is the capability check implemented by stores that answer,
// or may answer, every retrieval from process memory: the in-memory base
// stores answer true, wrappers that add no fetch of their own forward the
// wrapped store's answer. A store without the method (files, layouts, remote
// shards, fault injectors) does not.
type memoryCapable interface {
	InMemory() bool
}

// IsInMemory reports whether s answers every retrieval from process memory —
// a fetch costs an index or a probe, never a read, a round trip or a stall.
// Whoever assembles a store stack uses it to leave out the layers that only
// pay for themselves over a slow fetch (CoalescingStore).
func IsInMemory(s Store) bool {
	c, ok := s.(memoryCapable)
	return ok && c.InMemory()
}

// MemoryStore is what a build site fills: an in-memory base store it can add
// coefficients to and enumerate. Any number of goroutines may read it; a
// write needs exclusive access.
type MemoryStore interface {
	Updatable
	Enumerable
}

// NewMemoryStore returns the empty in-memory base store for count nonzero
// coefficients of a domain of cells cells: the paper's array-based storage
// when the dense array is strictly smaller than the hash table the count
// would reserve, its hash-based storage otherwise. A slot is 16 bytes and a
// cell 8, so that is cells < 2·slots(count); for a power-of-two domain,
// exactly count > 7/16·cells. A tie stays on the table, which does not grow
// with the domain. partitions > 1 says the store will hold one
// ShardOf(·, partitions) partition of a key set (see NewHashStorePartition);
// count is then that partition's share. cells ≤ 0 — a domain the caller does
// not know — selects the table. Every site that builds a base store chooses
// by this rule: loading a file, partitioning for a shard, MVCC compaction,
// and building from a dense transform (NewMemoryStoreFromDense).
//
// The array is never the larger allocation, so a header that lies about its
// sizes cannot make this function allocate more than the table its count
// always cost. Either one lives outside the Go heap (mapSlice), owned by the
// store it returns and unmapped once that store is unreachable.
func NewMemoryStore(cells, count, partitions int) MemoryStore {
	if arrayIsSmaller(cells, count) {
		s := &ArrayStore{cells: mapSlice[float64](cells)}
		runtime.SetFinalizer(s, func(s *ArrayStore) { unmapSlice(s.cells) })
		return s
	}
	return NewHashStorePartition(count, partitions)
}

// NewMemoryStoreFromDense is NewMemoryStore for a domain already held as a
// dense array: the array itself, not a copy of it, when the rule picks the
// array; a table of its nonzero cells otherwise.
func NewMemoryStoreFromDense(cells []float64) MemoryStore {
	count := 0
	for _, v := range cells {
		if v != 0 {
			count++
		}
	}
	if arrayIsSmaller(len(cells), count) {
		return NewArrayStore(cells)
	}
	return NewHashStoreFromDense(cells, 0)
}

// arrayIsSmaller is NewMemoryStore's rule.
func arrayIsSmaller(cells, count int) bool { return cells > 0 && cells < 2*slotsFor(count) }

// ArrayStore keeps the full dense coefficient array. Access is a bounds
// check and an index — the paper's "array-based storage".
//
// The array NewMemoryStore allocates is a mapping the store owns, released by
// a finalizer; every method that indexes it ends with runtime.KeepAlive(s),
// so the store outlives the loop (holding only the slice would not keep the
// mapping).
type ArrayStore struct {
	cells      []float64
	nonzero    int
	retrievals atomic.Int64
}

// NewArrayStore wraps the given dense coefficient array. The store aliases
// the slice, owns nothing (the caller's memory stays the caller's) and counts
// its nonzero cells here, once; from then on it is written only through Add,
// which keeps the count.
func NewArrayStore(cells []float64) *ArrayStore {
	s := &ArrayStore{cells: cells}
	for _, v := range cells {
		if v != 0 {
			s.nonzero++
		}
	}
	return s
}

// BatchGetCtx implements Store with one counter update for the batch.
func (s *ArrayStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	if err := ctx.Err(); err != nil {
		return err
	}
	s.retrievals.Add(int64(len(keys)))
	var failed []KeyError
	for i, k := range keys {
		if k < 0 || k >= len(s.cells) {
			failed = append(failed, rangeError(i, k, len(s.cells)))
			continue
		}
		dst[i] = s.cells[k]
	}
	runtime.KeepAlive(s)
	return batchError(failed)
}

// Add implements Updatable.
func (s *ArrayStore) Add(key int, delta float64) {
	if key < 0 || key >= len(s.cells) {
		panic(fmt.Sprintf("storage: key %d out of range [0,%d)", key, len(s.cells)))
	}
	old := s.cells[key]
	v := old + delta
	s.cells[key] = v
	switch {
	case old == 0 && v != 0:
		s.nonzero++
	case old != 0 && v == 0:
		s.nonzero--
	}
	runtime.KeepAlive(s)
}

// Retrievals implements Store.
func (s *ArrayStore) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements Store.
func (s *ArrayStore) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements Store: the count is kept as cells are written.
func (s *ArrayStore) NonzeroCount() int { return s.nonzero }

// ConcurrentSafe implements the IsConcurrent capability check: a read
// touches the cells and the atomic counter only.
func (s *ArrayStore) ConcurrentSafe() bool { return true }

// InMemory implements the IsInMemory capability check.
func (s *ArrayStore) InMemory() bool { return true }

// Size returns the total number of cells (zero or not).
func (s *ArrayStore) Size() int { return len(s.cells) }

// ForEachNonzero implements Enumerable (ascending key order).
func (s *ArrayStore) ForEachNonzero(fn func(key int, value float64) bool) {
	for k, v := range s.cells {
		if v != 0 {
			if !fn(k, v) {
				return
			}
		}
	}
	runtime.KeepAlive(s)
}

// HashStore keeps only nonzero coefficients in a hash table — the paper's
// "hash-based storage", appropriate when the transform is sparse relative to
// the domain. The table is a flat open-addressing one (table.go): 16 bytes a
// slot, at most 7/8 full, outside the Go heap once it outgrows a page. The
// store owns the table's mapping like NewMemoryStore's ArrayStore does.
type HashStore struct {
	cells      table
	retrievals atomic.Int64
}

// NewHashStore returns an empty hash store.
func NewHashStore() *HashStore { return NewHashStoreSized(0) }

// NewHashStoreSized returns an empty hash store with room for n coefficients
// allocated up front, so a loader that knows its count never rehashes.
func NewHashStoreSized(n int) *HashStore { return NewHashStorePartition(n, 1) }

// NewHashStorePartition is NewHashStoreSized for a store that holds one
// ShardOf(·, count) partition of a key set: its keys share the hash bits
// ShardOf consumed, so the table indexes with the bits below them. Keys of
// other partitions are still stored and served correctly, only more slowly.
func NewHashStorePartition(n, count int) *HashStore {
	if count <= 0 || count&(count-1) != 0 {
		panic(fmt.Sprintf("storage: partition count %d is not a power of two", count))
	}
	s := &HashStore{cells: newTable(log2(uint64(count)))}
	runtime.SetFinalizer(s, func(s *HashStore) { unmapSlice(s.cells.slots) })
	s.cells.reserve(n)
	return s
}

// NewHashStoreFromDense builds a hash store from a dense coefficient array,
// keeping entries with |value| > tol.
func NewHashStoreFromDense(cells []float64, tol float64) *HashStore {
	n := 0
	for _, v := range cells {
		if math.Abs(v) > tol {
			n++
		}
	}
	s := NewHashStoreSized(n)
	for k, v := range cells {
		if math.Abs(v) > tol {
			s.cells.add(k, v)
		}
	}
	runtime.KeepAlive(s)
	return s
}

// BatchGetCtx implements Store. The table does not know the domain size,
// so only negative keys are out of range.
func (s *HashStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	if err := ctx.Err(); err != nil {
		return err
	}
	s.retrievals.Add(int64(len(keys)))
	var failed []KeyError
	for i, k := range keys {
		if k < 0 {
			failed = append(failed, KeyError{Index: i, Key: k, Err: errNegativeKey})
			continue
		}
		dst[i] = s.cells.get(k)
	}
	runtime.KeepAlive(s)
	return batchError(failed)
}

// Add implements Updatable. A negative key panics: no retrieval could ever
// read it back.
func (s *HashStore) Add(key int, delta float64) {
	if key < 0 {
		panic(negativeKeyPanic(key))
	}
	s.cells.add(key, delta)
	runtime.KeepAlive(s)
}

// Retrievals implements Store.
func (s *HashStore) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements Store.
func (s *HashStore) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements Store.
func (s *HashStore) NonzeroCount() int { return s.cells.n }

// ConcurrentSafe implements the IsConcurrent capability check: a probe reads
// the table, and only Add writes it.
func (s *HashStore) ConcurrentSafe() bool { return true }

// InMemory implements the IsInMemory capability check.
func (s *HashStore) InMemory() bool { return true }

// ForEachNonzero implements Enumerable in the table's walk order, which is
// the same for every store built by the same sequence of Adds.
func (s *HashStore) ForEachNonzero(fn func(key int, value float64) bool) {
	s.cells.forEach(fn)
	runtime.KeepAlive(s)
}

var (
	_ MemoryStore = (*ArrayStore)(nil)
	_ MemoryStore = (*HashStore)(nil)
)
