package repro

import (
	"context"

	"repro/internal/storage"
)

// This file is the facade of the robustness layer: context-aware exact
// evaluation, retry policies, and deterministic fault injection. The
// progressive counterparts live on Run (StepCtx, StepBatchCtx,
// RunToCompletionCtx, RetrySkipped, Degraded, …), re-exported via types.go.

// Re-exported robustness vocabulary from internal/storage.
type (
	// FaultConfig is a deterministic fault schedule for InjectFaults.
	FaultConfig = storage.FaultConfig
	// RetryConfig is the backoff policy for EnableRetries.
	RetryConfig = storage.RetryConfig
	// KeyError is the failure of one coefficient retrieval.
	KeyError = storage.KeyError
	// BatchError is the partial failure of a batched retrieval.
	BatchError = storage.BatchError
)

// Sentinel errors of the robustness layer, matchable with errors.Is through
// every wrapper.
var (
	// ErrInjected is the default error of injected faults.
	ErrInjected = storage.ErrInjected
	// ErrRetriesExhausted wraps failures that survived every retry attempt.
	ErrRetriesExhausted = storage.ErrRetriesExhausted
)

// ExactCtx is the context-aware Exact: it evaluates the plan exactly,
// returning a retrieval failure (or ctx.Err()) instead of panicking. Exact
// evaluation has no error bound to degrade to; for partial answers under
// failures use a progressive Run, which skips failed entries and bounds the
// residual.
func (db *Database) ExactCtx(ctx context.Context, plan *Plan) ([]float64, error) {
	return plan.ExactCtx(ctx, db.evalStore())
}

// ExactParallelCtx is ExactCtx on up to workers goroutines (≤0 selects
// GOMAXPROCS): batched context-aware retrieval, parallel apply,
// bit-identical for every worker count.
func (db *Database) ExactParallelCtx(ctx context.Context, plan *Plan, workers int) ([]float64, error) {
	return plan.ExactParallelCtx(ctx, db.evalStore(), workers)
}

// EnableRetries wraps the database's store with a retry layer: retrievals
// that fail transiently are re-attempted with exponential backoff and
// jitter before the failure is surfaced. Layering: call EnableRetries before
// EnableCoalescing (and before handing the database to the HTTP server) so
// retries sit under the coalescing layer and a recovered fetch is shared.
func (db *Database) EnableRetries(cfg RetryConfig) {
	if db.mvcc != nil {
		// Under MVCC the retry layer wraps the immutable base of every view;
		// overlay layers are in-memory maps and never fail.
		db.mvcc.WrapBase(func(s storage.Store) storage.Store {
			return storage.NewRetryStore(s, cfg)
		})
		return
	}
	db.store = storage.NewRetryStore(db.store, cfg)
}

// InjectFaults wraps the database's store with a deterministic fault
// injector for chaos testing: retrievals fail or stall according to cfg —
// progressive runs degrade, while Exact and the other context-free
// conveniences panic on an injected failure. It returns a restore function that removes the injector (and any layers added on top
// of it since — restore rewinds the store to its pre-injection state).
// Layering: inject faults first, then EnableRetries to test recovery, then
// the server (whose coalescing layer goes on top).
// Under MVCC the injector wraps the base of every view and restore removes
// just the injector, leaving layers added on top in place.
func (db *Database) InjectFaults(cfg FaultConfig) (restore func()) {
	if db.mvcc != nil {
		return db.mvcc.WrapBase(func(s storage.Store) storage.Store {
			return storage.NewFaultStore(s, cfg)
		})
	}
	prev := db.store
	db.store = storage.NewFaultStore(db.store, cfg)
	return func() { db.store = prev }
}
