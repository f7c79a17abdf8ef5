package core

import (
	"context"
	"testing"

	"repro/internal/penalty"
	"repro/internal/storage"
)

// Robustness-layer benchmarks behind BENCH_robust.json: what the error and
// cancellation plumbing costs when nothing goes wrong. All on the 128-query
// fixture: the exact pass and the progressive drain on the bare hash store,
// and the marginal cost of a zero-fault injector and an idle retry layer on
// the exact pass. (The infallible halves these used to be compared against
// went with the infallible engine; BENCH_robust.json keeps their last rows.)

// BenchmarkExactFallible times the exact pass over the hash store (the
// plan's per-query index is built once, before the clock starts).
func BenchmarkExactFallible(b *testing.B) {
	f := newBenchPlanFixture(b)
	ctx := context.Background()
	if _, err := f.plan.Exact(ctx, f.store); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.plan.Exact(ctx, f.store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrainFallible drains a full progressive run through StepBatchCtx
// (batch 256, the sweet spot from BENCH_core.json).
func BenchmarkDrainFallible(b *testing.B) {
	f := newBenchPlanFixture(b)
	ctx := context.Background()
	f.plan.ScheduleFor(penalty.SSE{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewRun(f.plan, penalty.SSE{}, f.store)
		for !run.Done() {
			if _, err := run.StepBatchCtx(ctx, 256); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkZeroFaultInjector measures the exact pass through a
// FaultStore whose schedule never fires — the price of leaving the chaos
// layer installed in production.
func BenchmarkZeroFaultInjector(b *testing.B) {
	f := newBenchPlanFixture(b)
	ctx := context.Background()
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.plan.Exact(ctx, f.store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("injected", func(b *testing.B) {
		faulty := storage.NewFaultStore(f.store, storage.FaultConfig{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.plan.Exact(ctx, faulty); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIdleRetryLayer measures the exact pass through a
// RetryStore over a store that never fails: every call succeeds on the
// first attempt, so this is pure wrapper overhead.
func BenchmarkIdleRetryLayer(b *testing.B) {
	f := newBenchPlanFixture(b)
	ctx := context.Background()
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.plan.Exact(ctx, f.store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retried", func(b *testing.B) {
		retried := storage.NewRetryStore(f.store, storage.RetryConfig{MaxAttempts: 3})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.plan.Exact(ctx, retried); err != nil {
				b.Fatal(err)
			}
		}
	})
}
