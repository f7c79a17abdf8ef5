package core

import (
	"container/list"
	"fmt"
	"sort"

	"repro/internal/sparse"
	"repro/internal/storage"
)

// CachedEvaluator evaluates a batch query-by-query with a bounded LRU
// coefficient cache instead of materializing the merged master list. This
// trades repeat retrievals for O(cacheSize) workspace — the paper notes
// (Section 2.2) that avoiding simultaneous materialization of all query
// coefficients is of practical interest, and sketches "smart buffer
// management" as future work; this is the simplest such manager.
//
// With an unbounded cache the evaluator performs exactly as many retrievals
// as the shared master list (each distinct coefficient misses once); with a
// zero-sized cache it degenerates to the unshared per-query cost.
type CachedEvaluator struct {
	store     storage.Store
	cacheSize int

	lru    *list.List // of cacheEntry, front = most recent
	index  map[int]*list.Element
	hits   int64
	misses int64
}

type cacheEntry struct {
	key int
	val float64
}

// NewCachedEvaluator creates an evaluator with the given cache capacity (in
// coefficients). A capacity of zero disables caching.
func NewCachedEvaluator(store storage.Store, cacheSize int) (*CachedEvaluator, error) {
	if cacheSize < 0 {
		return nil, fmt.Errorf("core: negative cache size %d", cacheSize)
	}
	return &CachedEvaluator{
		store:     store,
		cacheSize: cacheSize,
		lru:       list.New(),
		index:     make(map[int]*list.Element),
	}, nil
}

// Evaluate computes exact results for every query vector, processing queries
// one at a time. Within each query, coefficients are visited in ascending
// key order, which groups coefficients shared between spatially adjacent
// queries and helps the cache.
func (e *CachedEvaluator) Evaluate(vectors []sparse.Vector) ([]float64, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	out := make([]float64, len(vectors))
	keys := make([]int, 0, 256)
	for qi, vec := range vectors {
		keys = keys[:0]
		for k := range vec {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		var acc float64
		for _, k := range keys {
			acc += vec[k] * e.get(k)
		}
		out[qi] = acc
	}
	return out, nil
}

func (e *CachedEvaluator) get(key int) float64 {
	if el, ok := e.index[key]; ok {
		e.hits++
		e.lru.MoveToFront(el)
		return el.Value.(cacheEntry).val
	}
	e.misses++
	v := storage.Get(e.store, key)
	if e.cacheSize == 0 {
		return v
	}
	if e.lru.Len() >= e.cacheSize {
		oldest := e.lru.Back()
		delete(e.index, oldest.Value.(cacheEntry).key)
		e.lru.Remove(oldest)
	}
	e.index[key] = e.lru.PushFront(cacheEntry{key: key, val: v})
	return v
}

// Hits returns the number of cache hits so far.
func (e *CachedEvaluator) Hits() int64 { return e.hits }

// Misses returns the number of cache misses (store retrievals) so far.
func (e *CachedEvaluator) Misses() int64 { return e.misses }

// CacheSize returns the configured capacity.
func (e *CachedEvaluator) CacheSize() int { return e.cacheSize }
