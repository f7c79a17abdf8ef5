package storage

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fastRetry keeps test backoffs tiny without touching the policy under test.
func fastRetry(attempts int) RetryConfig {
	return RetryConfig{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Microsecond,
		MaxDelay:    100 * time.Microsecond,
		Seed:        1,
	}
}

func TestRetryStoreRecoversTransientFailure(t *testing.T) {
	flaky := newFlakyStore(testCells(16), map[int]int{7: 2})
	rs := NewRetryStore(flaky, fastRetry(3))
	v, err := GetCtx(context.Background(), rs, 7)
	if err != nil {
		t.Fatalf("GetCtx: %v", err)
	}
	if want := Get(flaky.ArrayStore, 7); v != want {
		t.Fatalf("recovered value = %g, want %g", v, want)
	}
	if got := flaky.attemptsFor(7); got != 3 {
		t.Fatalf("inner attempts = %d, want 3 (two failures + success)", got)
	}
}

func TestRetryStoreExhaustsAttempts(t *testing.T) {
	flaky := newFlakyStore(testCells(16), map[int]int{7: 10})
	rs := NewRetryStore(flaky, fastRetry(2))
	_, err := GetCtx(context.Background(), rs, 7)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, must still wrap the final cause", err)
	}
	var ke *KeyError
	if !errors.As(err, &ke) || ke.Key != 7 {
		t.Fatalf("err = %v, must identify the key", err)
	}
	if got := flaky.attemptsFor(7); got != 2 {
		t.Fatalf("inner attempts = %d, want exactly MaxAttempts", got)
	}
}

func TestRetryStoreBatchRetriesOnlyFailedSubset(t *testing.T) {
	cells := testCells(32)
	// Key 4 fails once (recoverable), key 9 always fails, key 2 never fails.
	flaky := newFlakyStore(cells, map[int]int{4: 1, 9: 100})
	rs := NewRetryStore(flaky, fastRetry(3))
	keys := []int{2, 4, 9}
	dst := make([]float64, len(keys))
	err := rs.BatchGetCtx(context.Background(), keys, dst)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("BatchGetCtx: %v, want *BatchError", err)
	}
	if len(be.Failed) != 1 || be.Failed[0].Index != 2 || be.Failed[0].Key != 9 {
		t.Fatalf("failed = %+v, want only key 9 at index 2", be.Failed)
	}
	if !errors.Is(be.Failed[0].Err, ErrRetriesExhausted) || !errors.Is(be.Failed[0].Err, errFlaky) {
		t.Fatalf("cause = %v", be.Failed[0].Err)
	}
	if dst[0] != cells[2] || dst[1] != cells[4] {
		t.Fatalf("recovered values wrong: %v", dst)
	}
	// Subset discipline: key 2 succeeded on round one and was never re-asked;
	// key 4 was asked twice; key 9 burned every attempt.
	if got := flaky.attemptsFor(2); got != 1 {
		t.Fatalf("key 2 attempts = %d, want 1", got)
	}
	if got := flaky.attemptsFor(4); got != 2 {
		t.Fatalf("key 4 attempts = %d, want 2", got)
	}
	if got := flaky.attemptsFor(9); got != 3 {
		t.Fatalf("key 9 attempts = %d, want 3", got)
	}
}

func TestRetryStoreBatchFullRecovery(t *testing.T) {
	cells := testCells(32)
	flaky := newFlakyStore(cells, map[int]int{4: 1, 11: 2})
	rs := NewRetryStore(flaky, fastRetry(3))
	keys := []int{4, 11, 30}
	dst := make([]float64, len(keys))
	if err := rs.BatchGetCtx(context.Background(), keys, dst); err != nil {
		t.Fatalf("BatchGetCtx: %v", err)
	}
	for i, k := range keys {
		if dst[i] != cells[k] {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], cells[k])
		}
	}
}

func TestRetryStoreDoesNotRetryCancellation(t *testing.T) {
	flaky := newFlakyStore(testCells(8), map[int]int{3: 100})
	rs := NewRetryStore(flaky, fastRetry(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GetCtx(ctx, rs, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if got := flaky.attemptsFor(3); got > 1 {
		t.Fatalf("inner attempts = %d after cancellation, want ≤1", got)
	}
	dst := make([]float64, 1)
	if err := rs.BatchGetCtx(ctx, []int{3}, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want Canceled", err)
	}
}

func TestRetryStoreAttemptTimeoutBoundsSlowFetch(t *testing.T) {
	slow := NewFaultStore(NewArrayStore(testCells(8)), FaultConfig{
		DelayRate: 1, Delay: time.Hour,
	})
	cfg := fastRetry(2)
	cfg.AttemptTimeout = 5 * time.Millisecond
	rs := NewRetryStore(slow, cfg)
	start := time.Now()
	_, err := GetCtx(context.Background(), rs, 1)
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want exhausted deadline failures", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("two 5ms attempts took %v", elapsed)
	}
}

func TestRetryStoreZeroFaultPassThrough(t *testing.T) {
	cells := testCells(64)
	plain := NewArrayStore(cells)
	rs := NewRetryStore(NewArrayStore(cells), RetryConfig{})
	ctx := context.Background()
	for k := 0; k < 64; k++ {
		v, err := GetCtx(ctx, rs, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := Get(plain, k); v != want {
			t.Fatalf("GetCtx(%d) = %g, want %g", k, v, want)
		}
	}
	if v := Get(rs, 9); v != cells[9] {
		t.Fatalf("Get = %g", v)
	}
}

func TestRetryStoreBeatsNthCallFaultSchedule(t *testing.T) {
	// ErrorEvery faults are transient by construction — the retry lands on a
	// different call number — so a retry layer must fully absorb them.
	faulty := NewFaultStore(NewArrayStore(testCells(64)), FaultConfig{ErrorEvery: 2})
	rs := NewRetryStore(faulty, fastRetry(3))
	ctx := context.Background()
	for k := 0; k < 64; k++ {
		if _, err := GetCtx(ctx, rs, k); err != nil {
			t.Fatalf("GetCtx(%d): %v", k, err)
		}
	}
	// A batch ticks the call counter once per pending key, so each retry
	// round halves the failing subset: a 32-key batch needs ~log2(32)+2
	// rounds to drain.
	rs = NewRetryStore(faulty, fastRetry(8))
	keys := make([]int, 32)
	for i := range keys {
		keys[i] = i
	}
	dst := make([]float64, len(keys))
	if err := rs.BatchGetCtx(ctx, keys, dst); err != nil {
		t.Fatalf("BatchGetCtx: %v", err)
	}
}

func TestRetryStoreBackoffBounded(t *testing.T) {
	rs := NewRetryStore(NewArrayStore(testCells(4)), RetryConfig{
		MaxAttempts: 50,
		BaseDelay:   time.Millisecond,
		MaxDelay:    8 * time.Millisecond,
		Jitter:      1,
		Seed:        3,
	})
	for attempt := 1; attempt <= 50; attempt++ {
		d := rs.backoff(attempt)
		if d < 0 || d > 16*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, outside [0, 2×MaxDelay]", attempt, d)
		}
	}
}
