package storage

import (
	"context"
	"fmt"
	"sync"
)

// ConcurrentStore wraps a Store with a mutex so multiple progressive runs
// can execute in parallel goroutines against one materialized view. The
// paper's engine is sequential per run; this wrapper serializes the
// individual retrieval batches while letting runs interleave, which is the
// natural deployment shape for a read-mostly query service.
type ConcurrentStore struct {
	mu    sync.Mutex
	inner Store
}

// NewConcurrentStore wraps inner.
func NewConcurrentStore(inner Store) *ConcurrentStore {
	return &ConcurrentStore{inner: inner}
}

// BatchGetCtx implements Store with one lock round-trip per batch. The lock
// is not interruptible; cancellation is observed by the wrapped store (or
// by the engine at the next batch boundary).
func (s *ConcurrentStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.BatchGetCtx(ctx, keys, dst)
}

// Retrievals implements Store.
func (s *ConcurrentStore) Retrievals() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Retrievals()
}

// ResetStats implements Store.
func (s *ConcurrentStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.ResetStats()
}

// NonzeroCount implements Store.
func (s *ConcurrentStore) NonzeroCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.NonzeroCount()
}

// Add implements Updatable when the wrapped store does, taking the lock; it
// panics otherwise. This lets a ConcurrentStore stand in wherever the
// original store did (Database, scheduler) without losing maintenance.
func (s *ConcurrentStore) Add(key int, delta float64) {
	u, ok := s.inner.(Updatable)
	if !ok {
		panic(fmt.Sprintf("storage: %T is not updatable", s.inner))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u.Add(key, delta)
}

// ForEachNonzero implements Enumerable when the wrapped store does; the
// whole enumeration holds the lock. When the wrapped store cannot enumerate
// it panics — check Enumerable first to distinguish "empty" from
// "unsupported".
func (s *ConcurrentStore) ForEachNonzero(fn func(key int, value float64) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.inner.(Enumerable)
	if !ok {
		panic(fmt.Sprintf("storage: %T is not enumerable", s.inner))
	}
	e.ForEachNonzero(fn)
}

// Enumerable reports whether the wrapped store supports ForEachNonzero.
func (s *ConcurrentStore) Enumerable() bool { return IsEnumerable(s.inner) }

// ConcurrentSafe implements the IsConcurrent capability check.
func (s *ConcurrentStore) ConcurrentSafe() bool { return true }

// InMemory implements the IsInMemory capability check: a mutex adds no
// fetch, so the wrapper answers from memory when the store it wraps does.
func (s *ConcurrentStore) InMemory() bool { return IsInMemory(s.inner) }

var (
	_ Updatable  = (*ConcurrentStore)(nil)
	_ Enumerable = (*ConcurrentStore)(nil)
)
