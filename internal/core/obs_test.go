package core

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/penalty"
	"repro/internal/storage"
)

// TestSpanPropagationThroughLayers drives a run whose store stacks the full
// retrieval path — retries under coalescing — with a traced context, and
// checks that every layer's span lands in the sink with correct parentage:
// core.run.stepbatch → storage.coalesce.batchget → storage.retry.batchget.
// Run under -race this also exercises the span plumbing for data races.
func TestSpanPropagationThroughLayers(t *testing.T) {
	f := newFixture(t, 8)
	retr := storage.NewRetryStore(f.store, storage.RetryConfig{MaxAttempts: 2})
	coal := storage.NewCoalescingStore(retr)

	sink := obs.NewSpanSink(64)
	ctx := obs.WithTrace(context.Background(), "trace-steps", sink)

	run := NewRun(f.plan, penalty.SSE{}, coal)
	if _, err := run.StepBatchCtx(ctx, 16); err != nil {
		t.Fatal(err)
	}

	spans := sink.Spans()
	byName := make(map[string]obs.Span)
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	step, okStep := byName["core.run.stepbatch"]
	co, okCo := byName["storage.coalesce.batchget"]
	re, okRe := byName["storage.retry.batchget"]
	if !okStep || !okCo || !okRe {
		names := make([]string, 0, len(spans))
		for _, sp := range spans {
			names = append(names, sp.Name)
		}
		t.Fatalf("missing layer spans; recorded: %v", names)
	}
	if step.TraceID != "trace-steps" || co.TraceID != "trace-steps" || re.TraceID != "trace-steps" {
		t.Fatal("trace ID not propagated through every layer")
	}
	if step.ParentID != 0 {
		t.Fatalf("stepbatch must be the root span, parent %d", step.ParentID)
	}
	if co.ParentID != step.SpanID {
		t.Fatalf("coalesce parent = %d, want stepbatch %d", co.ParentID, step.SpanID)
	}
	if re.ParentID != co.SpanID {
		t.Fatalf("retry parent = %d, want coalesce %d", re.ParentID, co.SpanID)
	}
}

// TestSpanPropagationConcurrentRuns advances several traced runs in parallel
// against one coalescing store; under -race this pins down the span and
// counter plumbing on the shared retrieval path.
func TestSpanPropagationConcurrentRuns(t *testing.T) {
	f := newFixture(t, 8)
	retr := storage.NewRetryStore(f.store, storage.RetryConfig{MaxAttempts: 2})
	coal := storage.NewCoalescingStore(retr)

	reg := obs.NewRegistry()
	Observe(reg)
	storage.Observe(reg)
	defer Observe(nil)
	defer storage.Observe(nil)

	sink := obs.NewSpanSink(1024)
	const runs = 4
	done := make(chan error, runs)
	for i := 0; i < runs; i++ {
		go func() {
			ctx := obs.WithTrace(context.Background(), obs.NewRequestID(), sink)
			run := NewRun(f.plan, penalty.SSE{}, coal)
			for {
				n, err := run.StepBatchCtx(ctx, 32)
				if err != nil || n == 0 {
					done <- err
					return
				}
			}
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if sink.Total() == 0 {
		t.Fatal("no spans recorded")
	}
	snap := reg.Snapshot()
	if snap["wvq_core_runs_total"] != runs {
		t.Fatalf("runs counter = %v, want %d", snap["wvq_core_runs_total"], runs)
	}
	if snap["wvq_core_stepbatch_seconds_count"] == 0 {
		t.Fatal("stepbatch histogram never observed")
	}
	if coal.Stats().Requests == 0 {
		t.Fatal("coalesce request counter never incremented")
	}
}

// TestRunTraceBoundTrajectory attaches a recorder and checks the recorded
// bound trajectory is the Theorem-1 bound: non-increasing in retrieved count
// and exactly 0 once the run is exact.
func TestRunTraceBoundTrajectory(t *testing.T) {
	f := newFixture(t, 8)
	mass := coefficientMass(t, f.store)

	o := obs.NewObserver()
	run := NewRun(f.plan, penalty.SSE{}, f.store)
	run.AttachProfile(o.StartRun("req", "trajectory"), mass)
	for stepOne(run) {
	}

	runs, _ := o.Runs()
	snap := runs[0]
	if !snap.Finished || !snap.Done {
		t.Fatal("core must mark the run done when it drains")
	}
	if len(snap.Points) < 2 {
		t.Fatalf("only %d points recorded", len(snap.Points))
	}
	for i := 1; i < len(snap.Points); i++ {
		prev, cur := snap.Points[i-1], snap.Points[i]
		if cur.Retrieved <= prev.Retrieved {
			t.Fatalf("retrieved not ascending at point %d", i)
		}
		if cur.Bound > prev.Bound {
			t.Fatalf("bound increased from %g to %g at point %d", prev.Bound, cur.Bound, i)
		}
	}
	last := snap.Points[len(snap.Points)-1]
	if last.Bound != 0 {
		t.Fatalf("exact run must end at bound 0, got %g", last.Bound)
	}
	if last.Retrieved != f.plan.DistinctCoefficients() {
		t.Fatalf("final retrieved %d, want %d", last.Retrieved, f.plan.DistinctCoefficients())
	}
}

// TestScheduleCacheMetrics checks the plan's schedule cache mirrors hits and
// misses into the observed registry.
func TestScheduleCacheMetrics(t *testing.T) {
	f := newFixture(t, 6)
	reg := obs.NewRegistry()
	Observe(reg)
	defer Observe(nil)

	NewRun(f.plan, penalty.SSE{}, f.store) // first: miss, builds the schedule
	NewRun(f.plan, penalty.SSE{}, f.store) // second: hit
	snap := reg.Snapshot()
	if snap["wvq_core_schedule_cache_misses_total"] != 1 {
		t.Fatalf("misses = %v", snap["wvq_core_schedule_cache_misses_total"])
	}
	if snap["wvq_core_schedule_cache_hits_total"] != 1 {
		t.Fatalf("hits = %v", snap["wvq_core_schedule_cache_hits_total"])
	}
}
