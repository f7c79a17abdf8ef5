package storage

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedStore is a hash store physically partitioned into N lock shards:
// each shard owns a disjoint slice of the key space behind its own RWMutex,
// and the retrieval counter is a single atomic. Concurrent readers touching
// different shards proceed without contending, which is what lets many
// progressive runs (or HTTP requests) share one materialized view — the
// single-mutex ConcurrentStore serializes every batch instead.
//
// ShardedStore implements Store, Updatable and Enumerable and is
// concurrent-safe. Each shard holds its keys in a flat table (table.go) that
// indexes with the hash bits below the ones shardOf used. Enumeration walks
// the shards in order and each table in its own fixed order.
type ShardedStore struct {
	shards     []storeShard
	mask       uint64
	shift      uint
	retrievals atomic.Int64
}

type storeShard struct {
	mu    sync.RWMutex
	cells table
	// pad spaces shard headers apart so neighboring shard locks do not
	// false-share a cache line under concurrent load.
	_ [32]byte
}

// DefaultShards returns the shard count used when NewShardedStore is given
// 0: enough shards that GOMAXPROCS concurrent readers rarely collide.
func DefaultShards() int { return nextPow2(8 * runtime.GOMAXPROCS(0)) }

// NewShardedStore returns an empty sharded store. shards is rounded up to a
// power of two; 0 selects DefaultShards.
func NewShardedStore(shards int) *ShardedStore {
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = nextPow2(shards)
	s := &ShardedStore{
		shards: make([]storeShard, shards),
		mask:   uint64(shards - 1),
		shift:  64 - log2(uint64(shards)),
	}
	for i := range s.shards {
		s.shards[i].cells = newTable(log2(uint64(shards)))
	}
	return s
}

// NewShardedStoreFromDense builds a sharded store from a dense coefficient
// array, keeping entries with |value| > tol.
func NewShardedStoreFromDense(cells []float64, tol float64, shards int) *ShardedStore {
	s := NewShardedStore(shards)
	for k, v := range cells {
		if math.Abs(v) > tol {
			s.shards[s.shardOf(k)].cells.add(k, v)
		}
	}
	return s
}

// NewShardedStoreFrom copies the nonzero coefficients of an existing store
// into a sharded store. The source must be Enumerable.
func NewShardedStoreFrom(src Store, shards int) (*ShardedStore, error) {
	e, ok := src.(Enumerable)
	if !ok {
		return nil, fmt.Errorf("storage: cannot shard a non-enumerable store")
	}
	s := NewShardedStore(shards)
	e.ForEachNonzero(func(k int, v float64) bool {
		s.Add(k, v)
		return true
	})
	return s, nil
}

// shardPartitionMultiplier is the Fibonacci multiplicative-hash constant of
// the shard partition function (⌊2⁶⁴/φ⌋, odd): multiplying by it and keeping
// the top bits spreads the structured key patterns of wavelet master lists
// (runs, strided levels) evenly across shards.
const shardPartitionMultiplier = 0x9E3779B97F4A7C15

// ShardOf is the packed-key → shard partition function: it returns the shard
// index of key among n shards, where n must be a power of two (the function
// panics otherwise — partitioners must agree exactly, so a silently rounded
// count would be a correctness bug). It is the single placement rule of the
// system: ShardedStore uses it for its lock shards and the distributed
// coordinator (internal/dist) uses it to route batches to networked shard
// servers, so a key's lock shard and its network shard are provably computed
// the same way.
func ShardOf(key, n int) int {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("storage: ShardOf shard count %d is not a power of two", n))
	}
	return int((uint64(key) * shardPartitionMultiplier) >> (64 - log2(uint64(n))))
}

// shardOf hashes a key to its shard — ShardOf with the store's precomputed
// shift (the shard count is a power of two by construction).
func (s *ShardedStore) shardOf(key int) uint64 {
	return (uint64(key) * shardPartitionMultiplier) >> s.shift
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// BatchGetCtx implements Store: keys are grouped by shard so each shard
// touched is locked once per batch rather than once per key, and the
// retrieval counter takes one atomic add. Like HashStore, only negative keys
// are out of range.
func (s *ShardedStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	if err := ctx.Err(); err != nil {
		return err
	}
	s.retrievals.Add(int64(len(keys)))
	var failed []KeyError
	groups := make([][]int32, len(s.shards))
	for i, k := range keys {
		if k < 0 {
			failed = append(failed, KeyError{Index: i, Key: k, Err: errNegativeKey})
			continue
		}
		sh := s.shardOf(k)
		groups[sh] = append(groups[sh], int32(i))
	}
	for si := range groups {
		idxs := groups[si]
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.RLock()
		for _, i := range idxs {
			dst[i] = sh.cells.get(keys[i])
		}
		sh.mu.RUnlock()
	}
	return batchError(failed)
}

// Add implements Updatable, taking the shard's write lock. A negative key
// panics, as in HashStore.
func (s *ShardedStore) Add(key int, delta float64) {
	if key < 0 {
		panic(negativeKeyPanic(key))
	}
	sh := &s.shards[s.shardOf(key)]
	sh.mu.Lock()
	sh.cells.add(key, delta)
	sh.mu.Unlock()
}

// Retrievals implements Store.
func (s *ShardedStore) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements Store.
func (s *ShardedStore) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements Store.
func (s *ShardedStore) NonzeroCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.cells.n
		sh.mu.RUnlock()
	}
	return n
}

// ForEachNonzero implements Enumerable, holding one shard lock at a time.
// Coefficients added or removed concurrently may or may not be visited.
func (s *ShardedStore) ForEachNonzero(fn func(key int, value float64) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		done := sh.cells.forEach(fn)
		sh.mu.RUnlock()
		if !done {
			return
		}
	}
}

// ConcurrentSafe implements the IsConcurrent capability check.
func (s *ShardedStore) ConcurrentSafe() bool { return true }

// InMemory implements the IsInMemory capability check.
func (s *ShardedStore) InMemory() bool { return true }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n uint64) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

var (
	_ Updatable  = (*ShardedStore)(nil)
	_ Enumerable = (*ShardedStore)(nil)
)
