package storage

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// CachedStore wraps a Store with a coefficient cache that persists across
// plans and runs and never evicts. In the drill-down sessions of the paper's
// introduction, successive batches overlap heavily (the user refines regions
// already summarized), so coefficients retrieved for one batch answer the
// next for free. CachedStore makes that explicit: cache hits cost nothing,
// and Misses reports only the keys this cache sent to the wrapped store —
// not what other readers of that store retrieve.
//
// Any number of goroutines may read it: one batch at a time reads and fills
// the cache, the others wait for it. The counters are atomic, so reading
// them never waits for a batch.
type CachedStore struct {
	inner  Store
	hits   atomic.Int64
	misses atomic.Int64

	mu    sync.Mutex
	cache map[int]float64
}

// NewCachedStore wraps inner with an empty cache.
func NewCachedStore(inner Store) *CachedStore {
	return &CachedStore{inner: inner, cache: make(map[int]float64)}
}

// BatchGetCtx implements Store. Cache hits are served in place and can never
// fail; the misses (deduplicated) go to the wrapped store in one batch, and
// only successful fetches enter the cache — a failed retrieval is retried
// against the store next time, never served stale or zero. A duplicate miss
// within the batch is fetched once and the repeat counts as a hit, exactly
// as if the keys had arrived one at a time. Failed misses are reported as a
// *BatchError whose indices refer to the caller's batch (every position
// requesting a failed key fails); a non-batch error from the wrapped store
// (cancellation, total outage) is returned as-is.
func (s *CachedStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var miss []int              // position of each missing key's first occurrence
	missAt := make(map[int]int) // key → its first position
	var hits, repeats int64
	for i, k := range keys {
		if v, ok := s.cache[k]; ok {
			hits++
			dst[i] = v
			continue
		}
		if _, ok := missAt[k]; ok {
			// Shares the first occurrence's fetch — unless that fetch
			// fails, in which case every position of the key fails below.
			repeats++
			continue
		}
		missAt[k] = i
		miss = append(miss, i)
	}
	hits += repeats
	s.hits.Add(hits)
	if len(miss) == 0 {
		return nil
	}
	s.misses.Add(int64(len(miss)))
	failed, err := GetAt(ctx, s.inner, keys, miss, dst, nil)
	if err != nil {
		return err
	}
	rest := failed
	for _, p := range miss {
		if len(rest) > 0 && rest[0].Index == p {
			rest = rest[1:]
			continue
		}
		s.cache[keys[p]] = dst[p]
	}
	if repeats == 0 {
		return batchError(failed)
	}
	// Each later position of a missing key takes its first position's value
	// or failure.
	var out []KeyError
	for i, k := range keys {
		first, ok := missAt[k]
		if !ok {
			continue
		}
		if f, bad := slices.BinarySearchFunc(failed, first, func(ke KeyError, p int) int { return cmp.Compare(ke.Index, p) }); bad {
			out = append(out, KeyError{Index: i, Key: k, Err: failed[f].Err})
			continue
		}
		dst[i] = dst[first]
	}
	return batchError(out)
}

// Misses returns the keys this cache sent to the wrapped store, the
// session's own I/O count. The database's count, which every other reader
// of the store moves too, is not consulted.
func (s *CachedStore) Misses() int64 { return s.misses.Load() }

// Hits returns the number of retrievals served from the cache.
func (s *CachedStore) Hits() int64 { return s.hits.Load() }

// Cached returns the number of coefficients currently cached.
func (s *CachedStore) Cached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// ClearCache drops every cached coefficient.
func (s *CachedStore) ClearCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.cache)
}

// NonzeroCount implements Store.
func (s *CachedStore) NonzeroCount() int { return s.inner.NonzeroCount() }

var _ Store = (*CachedStore)(nil)
