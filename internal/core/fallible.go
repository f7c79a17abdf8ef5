package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/storage"
)

// This file is the evaluation engine: the one progressive loop
// (StepBatchCtx) and the one exact pass (Plan.Exact, whose accumulation is
// applyEvalIndex in parallel.go). Two rules govern every path:
//
//  1. Fault-free bit-identity: with a store that never fails, estimates
//     depend only on how many schedule entries have been applied — never on
//     how the advance was sliced into batches or which method drove it.
//  2. Graceful degradation (progressive paths only): a retrieval that fails
//     for any reason other than context cancellation marks its entry
//     skipped and the run keeps advancing. A skipped coefficient is just an
//     unretrieved term, so Theorem 1's worst-case bound — computed from
//     NextImportance, which accounts for skips — still holds for the
//     degraded estimates. Exact evaluation has no bound to fall back on, so
//     it treats any failure as fatal.
//
// Cancellation is never degradation: when ctx ends, the methods stop where
// they are and return ctx.Err(), leaving the run resumable.

// markSkipped records that the entry at schedule position sp could not be
// retrieved. Positions arrive in cursor order, so skipped stays ascending —
// and therefore importance-descending, which SkippedImportance relies on.
func (r *Run) markSkipped(sp int) {
	r.skipped = append(r.skipped, sp)
}

// Degraded reports whether any entry was skipped by a failed retrieval: the
// estimates are missing those coefficients' contributions, and
// WorstCaseBound/QueryErrorBound bound the resulting error.
func (r *Run) Degraded() bool { return len(r.skipped) > 0 }

// SkippedCount returns the number of entries skipped by failed retrievals.
func (r *Run) SkippedCount() int { return len(r.skipped) }

// SkippedKeys returns the storage keys of the skipped entries in the order
// they were skipped (descending importance).
func (r *Run) SkippedKeys() []int {
	if len(r.skipped) == 0 {
		return nil
	}
	out := make([]int, len(r.skipped))
	for j, sp := range r.skipped {
		out[j] = r.sched.keys[sp]
	}
	return out
}

// SkippedImportance returns ι_p of the most important skipped entry — the
// exact worst-case-bound cost of the missing coefficients: for a run whose
// cursor has drained the schedule, WorstCaseBound(K) equals
// K^α·SkippedImportance(). Zero when nothing was skipped. The first skip is
// the most important because the schedule is importance-descending.
func (r *Run) SkippedImportance() float64 {
	if len(r.skipped) == 0 {
		return 0
	}
	return r.sched.importances[r.sched.order[r.skipped[0]]]
}

// StepBatchCtx advances up to b entries in one batched retrieval. Because
// the retrieval order is a precomputed schedule, the next b storage keys are
// known before any store access: the schedule's own key subslice goes to
// BatchGetCtx — a true prefetch with zero per-batch key copying, one lock
// round-trip on a concurrent store, coalesced reads on a file store — and
// the values are applied in schedule order. Positions a partial failure
// reports are skipped individually; a whole-batch failure (other than
// cancellation) skips all b entries — the run advances either way. It
// returns the number of entries advanced, 0 when the run is complete or the
// context has ended.
func (r *Run) StepBatchCtx(ctx context.Context, b int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if remaining := len(r.sched.order) - r.cursor; b > remaining {
		b = remaining
	}
	if b <= 0 {
		return 0, nil
	}
	m := coObs()
	var start time.Time
	if m != nil || r.profile != nil {
		start = time.Now()
	}
	skippedBefore := len(r.skipped)
	if cap(r.batchVals) < b {
		r.batchVals = make([]float64, b)
	}
	vals := r.batchVals[:b]
	err := r.store.BatchGetCtx(ctx, r.sched.keys[r.cursor:r.cursor+b], vals)
	var failed map[int]bool
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, cerr
		}
		var be *storage.BatchError
		if errors.As(err, &be) {
			failed = make(map[int]bool, len(be.Failed))
			for _, ke := range be.Failed {
				failed[ke.Index] = true
			}
		} else {
			// Total failure: no position of vals can be trusted.
			for j := 0; j < b; j++ {
				r.markSkipped(r.cursor + j)
			}
			r.cursor += b
			r.finishStepBatch(m, start, skippedBefore)
			return b, nil
		}
	}
	for j := 0; j < b; j++ {
		if failed[j] {
			r.markSkipped(r.cursor + j)
			continue
		}
		v := vals[j]
		if v == 0 {
			continue
		}
		i := r.sched.order[r.cursor+j]
		idxs, cs := r.plan.entryRefs(int(i))
		for k, qi := range idxs {
			r.estimates[qi] += cs[k] * v
		}
	}
	r.cursor += b
	r.finishStepBatch(m, start, skippedBefore)
	return b, nil
}

// finishStepBatch is StepBatchCtx's shared exit instrumentation: batch
// latency and the recorder's row, its bound computed once.
func (r *Run) finishStepBatch(m *coreMetrics, start time.Time, skippedBefore int) {
	if m != nil {
		m.stepBatchSeconds.Observe(time.Since(start).Seconds())
	}
	if r.profile != nil {
		bound := r.WorstCaseBound(r.profileMass)
		r.profile.RecordStep(r.cursor, len(r.skipped)-skippedBefore, time.Since(start), bound, r.Done())
	}
}

// RunToCompletionCtx drains the schedule one entry at a time; afterwards the
// estimates are exact unless the run is Degraded.
// Cancellation stops mid-schedule and returns ctx.Err(); the run can resume.
func (r *Run) RunToCompletionCtx(ctx context.Context) error {
	for {
		if n, err := r.StepBatchCtx(ctx, 1); err != nil || n == 0 {
			return err
		}
	}
}

// RetrySkipped re-attempts every skipped entry in one batch — the recovery
// path after a transient outage. Entries that now succeed are applied to the
// estimates and cease to be skipped; entries that fail again stay skipped.
// It returns the number of entries recovered. A whole-batch failure
// (including cancellation) recovers nothing and returns its error.
func (r *Run) RetrySkipped(ctx context.Context) (int, error) {
	if len(r.skipped) == 0 {
		return 0, nil
	}
	keys := make([]int, len(r.skipped))
	for j, sp := range r.skipped {
		keys[j] = r.sched.keys[sp]
	}
	vals := make([]float64, len(keys))
	err := r.store.BatchGetCtx(ctx, keys, vals)
	var failed map[int]bool
	if err != nil {
		var be *storage.BatchError
		if !errors.As(err, &be) {
			return 0, err
		}
		failed = make(map[int]bool, len(be.Failed))
		for _, ke := range be.Failed {
			failed[ke.Index] = true
		}
	}
	keep := r.skipped[:0]
	recovered := 0
	for j, sp := range r.skipped {
		if failed[j] {
			keep = append(keep, sp)
			continue
		}
		recovered++
		i := r.sched.order[sp]
		if v := vals[j]; v != 0 {
			idxs, cs := r.plan.entryRefs(int(i))
			for k, qi := range idxs {
				r.estimates[qi] += cs[k] * v
			}
		}
	}
	r.skipped = keep
	if len(r.skipped) == 0 {
		r.skipped = nil
	}
	return recovered, nil
}

// Exact is the exact pass: one retrieval per distinct coefficient (the pure
// I/O-sharing exact algorithm of Section 2.2), on GOMAXPROCS workers. Exact
// evaluation has no error bound to degrade to, so any failed retrieval aborts
// with its error.
func (p *Plan) Exact(ctx context.Context, store storage.Store) ([]float64, error) {
	return p.exact(ctx, store, 0)
}

// exact is Exact on up to the given number of workers (≤0 selects
// GOMAXPROCS), split into a batched fetch phase and a per-query apply phase.
//
// The fetch phase issues chunked BatchGetCtx calls, one per worker and
// concurrently (every store takes concurrent readers), or one batch on a
// single worker (still hitting the store's batched fast path, e.g. the
// layout store's block reads). The apply phase (applyEvalIndex) partitions
// *queries* across workers, so each query's estimate is accumulated by
// exactly one worker in ascending master-list order: results are
// bit-identical for every worker count. Any retrieval failure is fatal; the
// failure of the lowest chunk is reported.
func (p *Plan) exact(ctx context.Context, store storage.Store, workers int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	est := make([]float64, p.NumQueries())
	n := len(p.keys)
	if n == 0 {
		return est, nil
	}
	workers = clampWorkers(workers, n)
	p.buildEvalIndex()
	vals := make([]float64, n)

	if workers > 1 {
		chunk := (n + workers - 1) / workers
		nchunks := (n + chunk - 1) / chunk
		errs := make([]error, nchunks)
		var wg sync.WaitGroup
		for c := 0; c < nchunks; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				errs[c] = store.BatchGetCtx(ctx, p.keys[lo:hi], vals[lo:hi])
			}(c, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else if err := store.BatchGetCtx(ctx, p.keys, vals); err != nil {
		return nil, err
	}

	p.applyEvalIndex(vals, est, workers)
	return est, nil
}
