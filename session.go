package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/storage"
)

// Session is an analysis session over a database: a sequence of batches
// (the coarse-synopsis-then-drill-down pattern of the paper's introduction)
// sharing one retrieval cache, so coefficients fetched for an earlier batch
// answer later batches for free. Session retrieval counts report only cache
// misses — the session's true I/O.
//
// A Session belongs to one goroutine: its cache is not concurrent-safe. To
// share I/O across *concurrent* clients instead of across one client's
// successive batches, set Coalesce on the Database's Stack (the HTTP server
// does this where a fetch is slow enough to be worth sharing) — the
// coalescing layer shares fetches between overlapping in-flight runs, where
// the session cache shares them across time.
type Session struct {
	db    *Database
	store *storage.CachedStore
}

// NewSession starts a session with the given cache capacity in coefficients
// (use UnboundedCache to never evict). Under MVCC the session binds to the
// head snapshot at creation time: every batch it evaluates sees that one
// version, bit-stable however many writes land while the session lives
// (start a new session to observe newer versions — also required for cache
// correctness, since cached coefficients never expire).
func (db *Database) NewSession(cacheCapacity int) (*Session, error) {
	cs, err := storage.NewCachedStore(db.evalStore(), cacheCapacity)
	if err != nil {
		return nil, err
	}
	return &Session{db: db, store: cs}, nil
}

// UnboundedCache is a session cache capacity that never evicts.
const UnboundedCache = storage.Unbounded

// Plan rewrites a batch under the session's database.
func (s *Session) Plan(batch Batch) (*Plan, error) { return s.db.Plan(batch) }

// Exact evaluates a plan exactly through the session cache.
func (s *Session) Exact(plan *Plan) []float64 { return plan.Exact(s.store) }

// ExactParallel evaluates a plan exactly through the session cache with
// batched retrieval and parallel per-query accumulation; results are
// bit-identical to Exact. The session cache is not concurrent-safe, so the
// fetch is one batched cache pass (hits served in place, misses forwarded to
// the backing store in a single batch) while the apply phase fans out across
// workers (≤0 selects GOMAXPROCS).
func (s *Session) ExactParallel(plan *Plan, workers int) []float64 {
	return plan.ExactParallel(s.store, workers)
}

// ExactCtx evaluates a plan exactly through the session cache, returning
// retrieval failures and ctx.Err() instead of panicking: hits are served
// from the cache, misses go to the backing store, and only successful
// fetches are cached. Bit-identical to Exact on a fault-free store.
func (s *Session) ExactCtx(ctx context.Context, plan *Plan) ([]float64, error) {
	return plan.ExactCtx(ctx, s.store)
}

// ExactParallelCtx is ExactParallel through the session cache with ExactCtx's
// error reporting.
func (s *Session) ExactParallelCtx(ctx context.Context, plan *Plan, workers int) ([]float64, error) {
	return plan.ExactParallelCtx(ctx, s.store, workers)
}

// NewRun starts a progressive run through the session cache. Retrieval
// ordering comes from the plan's shared schedule cache, so repeating a
// batch under the same penalty pays no per-run ordering cost.
func (s *Session) NewRun(plan *Plan, pen Penalty) *Run {
	return core.NewRun(plan, pen, s.store)
}

// Retrievals returns the number of cache misses (real I/O) since the
// session's last ResetStats.
func (s *Session) Retrievals() int64 { return s.store.Retrievals() }

// Hits returns the number of retrievals served from the session cache.
func (s *Session) Hits() int64 { return s.store.Hits() }

// CachedCoefficients returns the current cache population.
func (s *Session) CachedCoefficients() int { return s.store.Cached() }

// ResetStats zeroes the counters without dropping the cache.
func (s *Session) ResetStats() { s.store.ResetStats() }

// ClearCache drops every cached coefficient.
func (s *Session) ClearCache() { s.store.ClearCache() }
