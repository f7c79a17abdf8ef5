package repro

import "context"

// Evaluator is the evaluation surface shared by Database and Session: plan
// a batch, evaluate it exactly (infallibly, fallibly, or in parallel),
// start progressive runs, and account for retrievals. Callers, tests and
// benchmarks that work against either — "evaluate this batch through
// whatever is in front of the store" — take an Evaluator instead of
// duplicating code per concrete type. A Database evaluates against the
// store itself; a Session routes the same calls through its retrieval
// cache.
type Evaluator interface {
	// Plan rewrites a batch into its merged master list.
	Plan(batch Batch) (*Plan, error)
	// Exact evaluates a plan exactly (one retrieval per distinct
	// coefficient), panicking on storage failure.
	Exact(plan *Plan) []float64
	// ExactCtx evaluates a plan exactly, returning a retrieval failure or
	// ctx.Err() instead of panicking; bit-identical to Exact on a
	// fault-free store.
	ExactCtx(ctx context.Context, plan *Plan) ([]float64, error)
	// ExactParallel evaluates a plan exactly with batched retrieval and
	// parallel accumulation; bit-identical to Exact.
	ExactParallel(plan *Plan, workers int) []float64
	// ExactParallelCtx is ExactParallel with ExactCtx's error reporting.
	ExactParallelCtx(ctx context.Context, plan *Plan, workers int) ([]float64, error)
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
)
