package core

// Benches for the observability layer, consumed by `make bench-obs`
// (BENCH_obs.json): the cost of the instrumentation sites on the evaluation
// hot path with no registry observed (the "off is free" contract — must stay
// within noise of BENCH_core.json's BenchmarkStepToCompletion/schedule and
// add zero allocations), and the armed cost with a live registry, with a
// run recorder, and with the full instrumented store stack.

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/penalty"
	"repro/internal/storage"
)

// BenchmarkObsOffDrain is BenchmarkStepToCompletion/schedule with the
// instrumentation sites compiled in but no registry observed: the nil-check
// fast path. Compare against BENCH_core.json — the delta is the total cost
// of the observability layer when switched off.
func BenchmarkObsOffDrain(b *testing.B) {
	Observe(nil)
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	f.plan.ScheduleFor(pen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewRun(f.plan, pen, f.store)
		drainRun(run)
	}
}

// BenchmarkObsOnDrain is the same drain with a live registry: every step
// observes the step-latency histogram and the run counter.
func BenchmarkObsOnDrain(b *testing.B) {
	reg := obs.NewRegistry()
	Observe(reg)
	defer Observe(nil)
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	f.plan.ScheduleFor(pen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewRun(f.plan, pen, f.store)
		drainRun(run)
	}
}

// BenchmarkObsTracedDrain adds a listed run recorder per run on top of the
// live registry, under the context the server's observed middleware builds
// — what every request of an observed server pays, the full "watch the
// bound decay" configuration, StepBatchCtx-paced like the scheduler drives
// it.
func BenchmarkObsTracedDrain(b *testing.B) {
	o := obs.NewObserver()
	Observe(o.Registry)
	defer Observe(nil)
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	f.plan.ScheduleFor(pen)
	mass := 1000.0
	ctx, reqID := servedCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewRun(f.plan, pen, f.store)
		run.AttachProfile(o.StartRun(reqID, ""), mass)
		drainCtx(b, ctx, run, 256)
	}
}

// BenchmarkObsProfileOffDrain is the scheduler-shaped StepBatchCtx drain
// with profiling compiled in but no profile attached: the EXPLAIN ANALYZE
// off path. Its cost over the plain drain must be the per-batch nil checks
// only — zero extra allocations (the acceptance bar of the diagnostics
// layer).
func BenchmarkObsProfileOffDrain(b *testing.B) {
	Observe(nil)
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	f.plan.ScheduleFor(pen)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewRun(f.plan, pen, f.store)
		for {
			n, err := run.StepBatchCtx(ctx, 256)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
	}
}

// BenchmarkObsProfiledDrain is the same drain with a QueryProfile attached
// and carried in the context — the ?explain=1 configuration: one step row
// with its bound, one clock read pair, and one mutex round per 256-entry
// batch.
func BenchmarkObsProfiledDrain(b *testing.B) {
	Observe(nil)
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	f.plan.ScheduleFor(pen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := obs.NewQueryProfile("bench", "")
		ctx := obs.WithProfile(context.Background(), prof)
		run := NewRun(f.plan, pen, f.store)
		run.AttachProfile(prof, 1000)
		for {
			n, err := run.StepBatchCtx(ctx, 256)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		prof.Finish()
	}
}

// BenchmarkObsOffInstrumentedStore drains through the InstrumentedStore
// wrapper with no registry observed: the wrapper must be a pure pass-through
// (one atomic load per batch, no clock reads, no allocations).
func BenchmarkObsOffInstrumentedStore(b *testing.B) {
	Observe(nil)
	storage.Observe(nil)
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	f.plan.ScheduleFor(pen)
	wrapped := storage.NewInstrumentedStore(f.store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewRun(f.plan, pen, wrapped)
		drainRun(run)
	}
}
