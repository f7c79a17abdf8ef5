package storage

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
)

// CachedStore wraps a Store with an LRU coefficient cache that persists
// across plans and runs. In the drill-down sessions of the paper's
// introduction, successive batches overlap heavily (the user refines regions
// already summarized), so coefficients retrieved for one batch answer the
// next for free. CachedStore makes that explicit: cache hits cost nothing,
// and Retrievals reports only the misses that reached the wrapped store.
//
// A capacity of 0 disables caching; Unbounded keeps everything.
type CachedStore struct {
	inner    Store
	capacity int
	lru      *list.List // front = most recently used
	index    map[int]*list.Element
	hits     int64
}

type cachedCell struct {
	key int
	val float64
}

// Unbounded is the capacity for a cache that never evicts.
const Unbounded = math.MaxInt

// NewCachedStore wraps inner with a cache of the given capacity (in
// coefficients).
func NewCachedStore(inner Store, capacity int) (*CachedStore, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("storage: negative cache capacity %d", capacity)
	}
	return &CachedStore{
		inner:    inner,
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[int]*list.Element),
	}, nil
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
	if s.capacity == 0 {
		// Caching disabled: forward the whole batch.
		return s.inner.BatchGetCtx(ctx, keys, dst)
	}
	var missKeys []int
	missAt := make(map[int]int) // key → index into missKeys
	hits := s.hits
	for i, k := range keys {
		if el, ok := s.index[k]; ok {
			s.hits++
			s.lru.MoveToFront(el)
			dst[i] = el.Value.(cachedCell).val
			continue
		}
		if _, ok := missAt[k]; ok {
			// Shares the first occurrence's fetch — unless that fetch
			// fails, in which case every position of the key fails below.
			s.hits++
			continue
		}
		missAt[k] = len(missKeys)
		missKeys = append(missKeys, k)
	}
	if m := stObs(); m != nil {
		m.cacheHits.Add(s.hits - hits)
		m.cacheMisses.Add(int64(len(missKeys)))
	}
	if len(missKeys) == 0 {
		return nil
	}
	missVals := make([]float64, len(missKeys))
	err := s.inner.BatchGetCtx(ctx, missKeys, missVals)
	var failed map[int]error // missKeys index → cause
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) {
			return err
		}
		failed = make(map[int]error, len(be.Failed))
		for _, ke := range be.Failed {
			failed[ke.Index] = ke.Err
		}
	}
	for j, k := range missKeys {
		if _, bad := failed[j]; !bad {
			s.insert(k, missVals[j])
		}
	}
	var out []KeyError
	for i, k := range keys {
		j, ok := missAt[k]
		if !ok {
			continue
		}
		if cause, bad := failed[j]; bad {
			out = append(out, KeyError{Index: i, Key: k, Err: cause})
			continue
		}
		dst[i] = missVals[j]
	}
	return batchError(out)
}

// insert caches a fetched coefficient, evicting the LRU entry at capacity.
func (s *CachedStore) insert(key int, v float64) {
	if s.capacity == 0 {
		return
	}
	if s.lru.Len() >= s.capacity {
		oldest := s.lru.Back()
		delete(s.index, oldest.Value.(cachedCell).key)
		s.lru.Remove(oldest)
	}
	s.index[key] = s.lru.PushFront(cachedCell{key: key, val: v})
}

// Retrievals implements Store: only misses reach the wrapped store, so this
// is the session's true I/O count.
func (s *CachedStore) Retrievals() int64 { return s.inner.Retrievals() }

// Hits returns the number of retrievals served from the cache.
func (s *CachedStore) Hits() int64 { return s.hits }

// Cached returns the number of coefficients currently cached.
func (s *CachedStore) Cached() int { return s.lru.Len() }

// ResetStats implements Store, zeroing counters but keeping cached contents
// (use ClearCache to drop them).
func (s *CachedStore) ResetStats() {
	s.inner.ResetStats()
	s.hits = 0
}

// ClearCache drops every cached coefficient.
func (s *CachedStore) ClearCache() {
	s.lru.Init()
	s.index = make(map[int]*list.Element)
}

// NonzeroCount implements Store.
func (s *CachedStore) NonzeroCount() int { return s.inner.NonzeroCount() }

var _ Store = (*CachedStore)(nil)
