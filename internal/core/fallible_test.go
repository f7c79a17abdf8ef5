package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/penalty"
	"repro/internal/storage"
)

// transientStore fails the first failures[key] retrievals of each key with
// errTransient, then serves normally — the shape of a recoverable outage.
type transientStore struct {
	storage.Store
	mu       sync.Mutex
	failures map[int]int
}

var errTransient = errors.New("transient outage")

func (s *transientStore) getCtx(ctx context.Context, key int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	n := s.failures[key]
	if n > 0 {
		s.failures[key] = n - 1
	}
	s.mu.Unlock()
	if n > 0 {
		return 0, &storage.KeyError{Key: key, Err: errTransient}
	}
	return storage.Get(s.Store, key), nil
}

func (s *transientStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	var failed []storage.KeyError
	for i, k := range keys {
		v, err := s.getCtx(ctx, k)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failed = append(failed, storage.KeyError{Index: i, Key: k, Err: errTransient})
			continue
		}
		dst[i] = v
	}
	if len(failed) > 0 {
		return &storage.BatchError{Failed: failed}
	}
	return nil
}

var _ storage.Store = (*transientStore)(nil)

// brokenStore fails every batch wholesale with a non-batch,
// non-cancellation error — the shape of a total outage.
type brokenStore struct {
	storage.Store
}

var errOutage = errors.New("store down")

func (s *brokenStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	return errOutage
}

var _ storage.Store = (*brokenStore)(nil)

// coefficientMass sums |v| over the store, the Theorem 1 constant K.
func coefficientMass(t *testing.T, s storage.Store) float64 {
	t.Helper()
	e, ok := s.(storage.Enumerable)
	if !ok {
		t.Fatal("fixture store must be enumerable")
	}
	var mass float64
	if err := e.Walk(func(_ int, v float64) bool {
		mass += math.Abs(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return mass
}

// TestExactParallelCtxBitIdenticalToExact: Plan.Exact (GOMAXPROCS) and the
// exact pass on 1, 2 and 4 workers agree bit for bit, through a session
// cache, which serves one batch at a time behind its lock, and through the
// bare store, which serves the batches at once.
func TestExactParallelCtxBitIdenticalToExact(t *testing.T) {
	f := newFixture(t, 12)
	want := mustExactOn(f.plan, f.store, 1)
	assertBitIdentical(t, mustExact(f.plan, f.store), want, "Exact")
	ctx := context.Background()
	cached := storage.NewCachedStore(f.store)
	for _, w := range []int{1, 2, 4} {
		got, err := f.plan.exact(ctx, cached, w)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, want, fmt.Sprintf("exact(cached, %d)", w))
		got, err = f.plan.exact(ctx, f.store, w)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, want, fmt.Sprintf("exact(concurrent, %d)", w))
	}
}

func TestExactCtxFailsFastOnFault(t *testing.T) {
	f := newFixture(t, 8)
	faulty := storage.NewFaultStore(f.store, storage.FaultConfig{ErrorRate: 0.2, Seed: 3})
	est, err := f.plan.Exact(context.Background(), faulty)
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if est != nil {
		t.Fatal("failed exact evaluation must not return estimates")
	}
	if _, err := f.plan.exact(context.Background(), faulty, 4); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("parallel err = %v, want ErrInjected", err)
	}
}

func TestDegradedRunKeepsTheoremOneBound(t *testing.T) {
	f := newFixture(t, 12)
	exact := mustExact(f.plan, f.store)
	mass := coefficientMass(t, f.store)
	pen := penalty.SSE{}
	faulty := storage.NewFaultStore(f.store, storage.FaultConfig{ErrorRate: 0.25, Seed: 9})
	run := NewRun(f.plan, pen, faulty)
	if err := run.RunToCompletionCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !run.Done() {
		t.Fatal("degraded run did not drain the schedule")
	}
	if !run.Degraded() || run.SkippedCount() == 0 {
		t.Fatal("ErrorRate 0.25 produced no skips")
	}
	if len(run.SkippedKeys()) != run.SkippedCount() {
		t.Fatal("SkippedKeys disagrees with SkippedCount")
	}
	if run.SkippedImportance() <= 0 {
		t.Fatal("SkippedImportance must be positive on a degraded run")
	}
	// Theorem 1 on the degraded estimates: the skipped coefficients are
	// unretrieved terms, so the worst-case bound must dominate the actual
	// penalty of the residual error.
	errs := make([]float64, len(exact))
	for i := range exact {
		errs[i] = run.Estimates()[i] - exact[i]
	}
	actual := pen.Eval(errs)
	bound := run.WorstCaseBound(mass)
	if bound <= 0 {
		t.Fatal("degraded complete run must report a positive bound")
	}
	if actual > bound*(1+1e-9) {
		t.Fatalf("actual penalty %g exceeds worst-case bound %g", actual, bound)
	}
	// Per-query bounds must dominate per-query errors too.
	for i := range exact {
		qb := run.QueryErrorBound(i, mass)
		if math.Abs(errs[i]) > qb*(1+1e-9)+1e-12 {
			t.Fatalf("query %d: |error| %g exceeds bound %g", i, math.Abs(errs[i]), qb)
		}
	}
}

func TestStepBatchCtxSkipsIndividualFailures(t *testing.T) {
	f := newFixture(t, 8)
	faulty := storage.NewFaultStore(f.store, storage.FaultConfig{ErrorRate: 0.3, Seed: 21})
	run := NewRun(f.plan, penalty.SSE{}, faulty)
	ctx := context.Background()
	total := 0
	for {
		n, err := run.StepBatchCtx(ctx, 16)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != f.plan.DistinctCoefficients() {
		t.Fatalf("advanced %d, want every entry attempted", total)
	}
	if !run.Done() {
		t.Fatal("run not done")
	}
	if !run.Degraded() {
		t.Fatal("expected skips")
	}
	// Degradation must be consistent between the batched and single paths.
	single := NewRun(f.plan, penalty.SSE{}, storage.NewFaultStore(f.store, storage.FaultConfig{ErrorRate: 0.3, Seed: 21}))
	if err := single.RunToCompletionCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if single.SkippedCount() != run.SkippedCount() {
		t.Fatalf("skip count %d (batched) vs %d (single) for the same fault schedule",
			run.SkippedCount(), single.SkippedCount())
	}
	assertBitIdentical(t, run.Estimates(), single.Estimates(), "degraded estimates")
}

func TestStepBatchCtxWholeBatchFailureSkipsAll(t *testing.T) {
	f := newFixture(t, 8)
	run := NewRun(f.plan, penalty.SSE{}, &brokenStore{Store: f.store})
	n, err := run.StepBatchCtx(context.Background(), 5)
	if err != nil {
		t.Fatalf("a total outage must degrade, not fail: %v", err)
	}
	if n != 5 || run.SkippedCount() != 5 {
		t.Fatalf("advanced %d with %d skips, want 5 and 5", n, run.SkippedCount())
	}
}

func TestRetrySkippedRecoversToExact(t *testing.T) {
	f := newFixture(t, 10)
	exact := mustExact(f.plan, f.store)
	// Every 4th key (by hash of its position in the plan) fails exactly once:
	// the first pass degrades, the retry recovers fully.
	failures := make(map[int]int)
	for i, key := range f.plan.keys {
		if i%4 == 0 {
			failures[key] = 1
		}
	}
	ts := &transientStore{Store: f.store, failures: failures}
	run := NewRun(f.plan, penalty.SSE{}, ts)
	ctx := context.Background()
	if err := run.RunToCompletionCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if !run.Degraded() {
		t.Fatal("first pass should have skipped entries")
	}
	skipped := run.SkippedCount()
	recovered, err := run.RetrySkipped(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != skipped {
		t.Fatalf("recovered %d of %d", recovered, skipped)
	}
	if run.Degraded() || run.SkippedCount() != 0 {
		t.Fatal("run still degraded after full recovery")
	}
	// Recovered coefficients are applied after the rest, so the FP
	// accumulation order differs from Exact's key order: compare within
	// tolerance, not bitwise.
	assertClose(t, run.Estimates(), exact, 1e-9, "recovered estimates")
	mass := coefficientMass(t, f.store)
	if b := run.WorstCaseBound(mass); b != 0 {
		t.Fatalf("recovered complete run has bound %g, want 0", b)
	}
	// A second retry with nothing skipped is a no-op.
	if n, err := run.RetrySkipped(ctx); n != 0 || err != nil {
		t.Fatalf("idle RetrySkipped = (%d, %v)", n, err)
	}
}

func TestRetrySkippedPartialRecovery(t *testing.T) {
	f := newFixture(t, 8)
	// One key fails forever, the others that fail do so once.
	failures := make(map[int]int)
	permanent := f.plan.keys[0]
	failures[permanent] = 1 << 30
	for i, key := range f.plan.keys {
		if i > 0 && i%5 == 0 {
			failures[key] = 1
		}
	}
	ts := &transientStore{Store: f.store, failures: failures}
	run := NewRun(f.plan, penalty.SSE{}, ts)
	ctx := context.Background()
	if err := run.RunToCompletionCtx(ctx); err != nil {
		t.Fatal(err)
	}
	before := run.SkippedCount()
	recovered, err := run.RetrySkipped(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != before-1 {
		t.Fatalf("recovered %d, want %d", recovered, before-1)
	}
	if !run.Degraded() || run.SkippedCount() != 1 {
		t.Fatalf("want exactly the permanent key still skipped, have %d", run.SkippedCount())
	}
	if keys := run.SkippedKeys(); len(keys) != 1 || keys[0] != permanent {
		t.Fatalf("SkippedKeys = %v, want [%d]", keys, permanent)
	}
}

func TestStepCtxCancellationLeavesRunResumable(t *testing.T) {
	f := newFixture(t, 10)
	pen := penalty.SSE{}
	want := NewRun(f.plan, pen, f.store)
	drainRun(want)

	run := NewRun(f.plan, pen, f.store)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 5; i++ {
		if _, err := run.StepBatchCtx(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	cursorAtCancel := run.Retrieved()
	if _, err := run.StepBatchCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, err := run.StepBatchCtx(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want Canceled", err)
	}
	if err := run.RunToCompletionCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("completion err = %v, want Canceled", err)
	}
	if run.Retrieved() != cursorAtCancel {
		t.Fatal("cancellation advanced the cursor")
	}
	if run.Degraded() {
		t.Fatal("cancellation must not count as degradation")
	}
	// Resume with a live context and finish exactly.
	if err := run.RunToCompletionCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !run.Done() || run.Degraded() {
		t.Fatal("resumed run did not complete cleanly")
	}
	assertBitIdentical(t, run.Estimates(), want.Estimates(), "resumed estimates")
}
