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

// EnableRetries puts a retry layer into the store stack: retrievals that
// fail transiently are re-attempted with exponential backoff and jitter
// before the failure is surfaced. The layer sits over injected faults and
// under coalescing, so a recovered fetch is shared. A second call replaces
// the policy.
func (db *Database) EnableRetries(cfg RetryConfig) {
	db.stack.Retry = &cfg
	db.rebuild()
}

// InjectFaults puts a deterministic fault injector at the bottom of the
// store stack for chaos testing: retrievals fail or stall according to cfg —
// progressive runs degrade, while Exact and the other context-free
// conveniences panic on an injected failure. It returns a restore function
// that removes the injector and nothing else: every other layer, whenever it
// was enabled, stays.
func (db *Database) InjectFaults(cfg FaultConfig) (restore func()) {
	db.stack.Fault = &cfg
	db.rebuild()
	return func() {
		db.stack.Fault = nil
		db.rebuild()
	}
}
