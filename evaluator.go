package repro

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// Evaluator is the evaluation surface shared by Database, Session and
// Snapshot: plan a batch, evaluate it exactly, start progressive runs, and
// account for retrievals. Callers, tests and benchmarks that work against
// any of them — "evaluate this batch through whatever is in front of the
// store" — take an Evaluator instead of duplicating code per concrete type.
// A Database evaluates against its store as it is at each call (under MVCC,
// the head version); a Session routes the same calls through its retrieval
// cache, and a Snapshot reads its pinned version.
type Evaluator interface {
	// Plan rewrites a batch into its merged master list.
	Plan(batch Batch) (*Plan, error)
	// Exact evaluates a plan exactly (one retrieval per distinct
	// coefficient), panicking on storage failure.
	Exact(plan *Plan) []float64
	// ExactCtx is Exact returning a retrieval failure or ctx.Err() instead
	// of panicking; on a store that does not fail the two agree bit for bit.
	ExactCtx(ctx context.Context, plan *Plan) ([]float64, error)
	// NewRun starts a progressive Batch-Biggest-B run under the penalty.
	NewRun(plan *Plan, pen Penalty) *Run
	// Retrievals reports the I/O performed since the last ResetStats.
	Retrievals() int64
	// ResetStats zeroes the retrieval accounting.
	ResetStats()
}

var (
	_ Evaluator = (*Database)(nil)
	_ Evaluator = (*Session)(nil)
	_ Evaluator = (*Snapshot)(nil)
)

// evaluator is the Evaluator a Session and a Snapshot embed: the database
// that plans batches, and the store every evaluation reads, fixed at
// creation — the session's cache, the snapshot's pinned view. Retrievals and
// ResetStats are that store's counter: the cache's misses, or for a
// snapshot the counter every view of the database shares.
type evaluator struct {
	db    *Database
	store storage.Store
}

// Plan rewrites a batch under the database (plans depend only on the schema
// and the filter).
func (e evaluator) Plan(batch Batch) (*Plan, error) { return e.db.Plan(batch) }

// Exact evaluates a plan exactly through the store; it panics if a
// retrieval fails.
func (e evaluator) Exact(plan *Plan) []float64 { return mustExact(plan, e.store) }

// ExactCtx evaluates a plan exactly through the store, returning retrieval
// failures and ctx.Err() instead of panicking.
func (e evaluator) ExactCtx(ctx context.Context, plan *Plan) ([]float64, error) {
	return plan.Exact(ctx, e.store)
}

// NewRun starts a progressive run through the store. Retrieval ordering
// comes from the plan's shared schedule cache, so repeating a batch under
// the same penalty pays no per-run ordering cost.
func (e evaluator) NewRun(plan *Plan, pen Penalty) *Run { return core.NewRun(plan, pen, e.store) }

// Retrievals returns the store's retrieval count since its last ResetStats.
func (e evaluator) Retrievals() int64 { return e.store.Retrievals() }

// ResetStats zeroes the store's counters (a session keeps its cache).
func (e evaluator) ResetStats() { e.store.ResetStats() }

// mustExact is the exact pass for callers with no error to return: a failed
// retrieval panics.
func mustExact(plan *Plan, store storage.Store) []float64 {
	est, err := plan.Exact(context.Background(), store)
	if err != nil {
		panic(fmt.Sprintf("repro: exact evaluation failed: %v", err))
	}
	return est
}
