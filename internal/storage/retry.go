package storage

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrRetriesExhausted wraps the final error of a retrieval that failed on
// every attempt. Match with errors.Is.
var ErrRetriesExhausted = errors.New("storage: retries exhausted")

// RetryConfig tunes a RetryStore. The zero value is usable: Normalize fills
// in three attempts with 1ms–100ms exponential backoff and full jitter.
type RetryConfig struct {
	// MaxAttempts is the total number of tries per retrieval, including the
	// first (≥1). 0 means the default of 3.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it. 0 means the default of 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means the default of 100ms.
	MaxDelay time.Duration
	// Jitter in [0,1] scales each backoff by a factor drawn uniformly from
	// [1-Jitter, 1+Jitter], decorrelating concurrent retriers. The draw is
	// seeded, so runs are reproducible. Negative means no jitter; 0 means
	// the default of 0.5.
	Jitter float64
	// AttemptTimeout bounds each individual attempt with a derived context.
	// 0 disables; the caller's context still bounds the whole retrieval.
	AttemptTimeout time.Duration
	// Seed drives the jitter sequence.
	Seed uint64
}

// normalized returns cfg with defaults applied.
func (cfg RetryConfig) normalized() RetryConfig {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 100 * time.Millisecond
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.5
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.Jitter > 1 {
		cfg.Jitter = 1
	}
	return cfg
}

// RetryStore wraps a Store and retries failed retrievals with exponential
// backoff and jitter. Cancellation is never retried: when the caller's
// context ends, the retrieval returns ctx.Err() immediately, whatever
// attempt it was on.
type RetryStore struct {
	inner Store
	cfg   RetryConfig
	draws atomic.Int64 // jitter draws, for a reproducible sequence
}

// NewRetryStore wraps inner with the given retry policy.
func NewRetryStore(inner Store, cfg RetryConfig) *RetryStore {
	return &RetryStore{inner: inner, cfg: cfg.normalized()}
}

// backoff returns the jittered delay before attempt number `attempt`
// (1-based count of completed attempts).
func (s *RetryStore) backoff(attempt int) time.Duration {
	d := s.cfg.BaseDelay << (attempt - 1)
	if d > s.cfg.MaxDelay || d <= 0 { // <=0 guards shift overflow
		d = s.cfg.MaxDelay
	}
	if s.cfg.Jitter > 0 {
		u := keyFraction(s.cfg.Seed, int(s.draws.Add(1)))
		d = time.Duration(float64(d) * (1 + s.cfg.Jitter*(2*u-1)))
	}
	return d
}

// attemptCtx derives the per-attempt context.
func (s *RetryStore) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.AttemptTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.AttemptTimeout)
}

// exhausted wraps the last error of a retrieval whose attempts ran out.
func (s *RetryStore) exhausted(last error) error {
	return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, s.cfg.MaxAttempts, last)
}

// BatchGetCtx implements Store. A partial failure retries only the
// failed subset — coefficients already fetched are kept, so each retry round
// shrinks the batch. Keys still failing when attempts run out come back in a
// *BatchError with each cause wrapped in ErrRetriesExhausted; cancellation
// aborts the whole call with ctx.Err().
func (s *RetryStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	// pend maps the positions still unfetched; initially the whole batch.
	pend := make([]int, len(keys))
	for i := range pend {
		pend[i] = i
	}
	pendKeys := make([]int, len(keys))
	copy(pendKeys, keys)
	vals := make([]float64, len(keys))
	var lastFailed []KeyError // failures of the most recent attempt, batch-relative
	for attempt := 1; attempt <= s.cfg.MaxAttempts; attempt++ {
		obsRetryAttempts(int64(len(pend)))
		if attempt > 1 {
			obs.ProfileFrom(ctx).AddRetry(len(pend))
		}
		actx, cancel := s.attemptCtx(ctx)
		err := s.inner.BatchGetCtx(actx, pendKeys[:len(pend)], vals[:len(pend)])
		cancel()
		var be *BatchError
		switch {
		case err == nil:
			for j, pos := range pend {
				dst[pos] = vals[j]
			}
			return nil
		case errors.As(err, &be):
			bad := make(map[int]error, len(be.Failed))
			for _, ke := range be.Failed {
				bad[ke.Index] = ke.Err
			}
			lastFailed = lastFailed[:0]
			next := 0
			for j, pos := range pend {
				if cause, ok := bad[j]; ok {
					lastFailed = append(lastFailed, KeyError{Index: pos, Key: keys[pos], Err: cause})
					pend[next] = pos
					pendKeys[next] = keys[pos]
					next++
					continue
				}
				dst[pos] = vals[j]
			}
			pend = pend[:next]
		default:
			// Whole-batch failure: nothing fetched this round, every pending
			// position failed for the same reason.
			lastFailed = lastFailed[:0]
			for _, pos := range pend {
				lastFailed = append(lastFailed, KeyError{Index: pos, Key: keys[pos], Err: err})
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if attempt < s.cfg.MaxAttempts {
			if serr := sleepCtx(ctx, s.backoff(attempt)); serr != nil {
				return serr
			}
		}
	}
	obsRetryExhausted(int64(len(lastFailed)))
	failed := make([]KeyError, len(lastFailed))
	for i, ke := range lastFailed {
		failed[i] = KeyError{Index: ke.Index, Key: ke.Key, Err: s.exhausted(ke.Err)}
	}
	return &BatchError{Failed: failed}
}

// Retrievals implements Store: every attempt that reached the wrapped store
// counts, so retries are visible as extra physical I/O.
func (s *RetryStore) Retrievals() int64 { return s.inner.Retrievals() }

// ResetStats implements Store.
func (s *RetryStore) ResetStats() { s.inner.ResetStats() }

// NonzeroCount implements Store.
func (s *RetryStore) NonzeroCount() int { return s.inner.NonzeroCount() }
