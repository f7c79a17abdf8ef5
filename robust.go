package repro

import (
	"context"

	"repro/internal/storage"
)

// This file is the facade of the robustness layer: context-aware exact
// evaluation and the vocabulary of the retry and fault layers, which a
// Stack declares (SetStack). The progressive counterparts live on Run
// (StepCtx, StepBatchCtx, RunToCompletionCtx, RetrySkipped, Degraded, …),
// re-exported via types.go.

// Re-exported robustness vocabulary from internal/storage.
type (
	// FaultConfig is a deterministic fault schedule for Stack.Fault.
	FaultConfig = storage.FaultConfig
	// RetryConfig is the backoff policy for Stack.Retry.
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
