package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/penalty"
	"repro/internal/storage"
)

// layeredStack is the served retrieval path under a transient fault
// schedule: fault → retry → instrument → coalesce, retries enough to beat
// every injected failure and a backoff short enough for a test.
var layeredStack = storage.Stack{
	Fault:      &storage.FaultConfig{ErrorEvery: 5},
	Retry:      &storage.RetryConfig{MaxAttempts: 8, BaseDelay: time.Microsecond},
	Instrument: true,
	Coalesce:   true,
}

// drainCtx advances run to completion in batches of b under ctx.
func drainCtx(t testing.TB, ctx context.Context, run *Run, b int) {
	t.Helper()
	for {
		n, err := run.StepBatchCtx(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
	}
}

// TestProfileThroughLayers drives a profiled run over fault → retry →
// coalesce and checks what each layer recorded into the run's profile
// through the context: the coalescing layer's identity requested = physical
// + coalesced over every scheduled key, and the keys the retry layer
// fetched again. The retries beat every fault, so the run ends exact.
func TestProfileThroughLayers(t *testing.T) {
	f := newFixture(t, 8)
	top := layeredStack.Build(f.store, nil)

	prof := obs.NewQueryProfile("req-layers", "layers")
	ctx := obs.WithProfile(context.Background(), prof)
	run := NewRun(f.plan, penalty.SSE{}, top)
	run.AttachProfile(prof, coefficientMass(t, f.store))
	drainCtx(t, ctx, run, 16)
	prof.Finish()

	if run.Degraded() {
		t.Fatalf("run skipped %d entries; the retries should beat every fault", run.SkippedCount())
	}
	snap := prof.Snapshot()
	tiers := snap.Tiers
	if want := int64(f.plan.DistinctCoefficients()); tiers.Requested != want {
		t.Fatalf("coalescing layer saw %d keys, want the schedule's %d", tiers.Requested, want)
	}
	if tiers.Requested != tiers.Physical+tiers.Coalesced {
		t.Fatalf("requested %d != physical %d + coalesced %d", tiers.Requested, tiers.Physical, tiers.Coalesced)
	}
	if tiers.Retried <= 0 {
		t.Fatalf("retry layer recorded %d re-fetched keys under ErrorEvery 5", tiers.Retried)
	}
	if last := snap.Bound[len(snap.Bound)-1]; last.Bound != 0 || last.Retrieved != f.plan.DistinctCoefficients() {
		t.Fatalf("profile ends at %+v, want bound 0 after every entry", last)
	}
}

// TestRecorderConcurrentRuns advances several runs in parallel over one
// layered store, each with its own listed recorder on the context, while a
// reader renders the observer's run list and the recorders as
// /debug/profiles and ?explain=1 do. Under -race this pins down the recorder
// and counter plumbing on the shared retrieval path: the retry layer writes
// into a recorder that is read live.
func TestRecorderConcurrentRuns(t *testing.T) {
	f := newFixture(t, 8)
	top := layeredStack.Build(f.store, nil)

	reg := obs.NewRegistry()
	Observe(reg)
	storage.Observe(reg)
	defer Observe(nil)
	defer storage.Observe(nil)

	o := obs.NewObserver()
	const runs = 4
	profs := make([]*obs.QueryProfile, runs)
	for i := range profs {
		profs[i] = o.StartRun(obs.NewRequestID(), "concurrent")
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.Profiles()
			for _, p := range profs {
				p.Snapshot()
			}
		}
	}()
	done := make(chan error, runs)
	for _, prof := range profs {
		go func() {
			ctx := obs.WithProfile(context.Background(), prof)
			run := NewRun(f.plan, penalty.SSE{}, top)
			run.AttachProfile(prof, 1)
			for {
				n, err := run.StepBatchCtx(ctx, 32)
				if err != nil || n == 0 {
					prof.Finish()
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
	close(stop)
	<-read

	var retried, requested int64
	for _, prof := range profs {
		snap := prof.Snapshot()
		if len(snap.Steps) == 0 || snap.Steps[len(snap.Steps)-1].Retrieved != f.plan.DistinctCoefficients() {
			t.Fatalf("recorder %s did not record its whole drain", snap.ID)
		}
		retried += snap.Tiers.Retried
		requested += snap.Tiers.Requested
	}
	if retried == 0 {
		t.Fatal("no recorder holds a retry")
	}
	if want := int64(runs * f.plan.DistinctCoefficients()); requested != want {
		t.Fatalf("recorders hold %d requested keys, want %d", requested, want)
	}
	if listed, _, total := o.RingStats(); listed != runs || total != runs {
		t.Fatalf("observer lists %d of %d runs, want %d", listed, total, runs)
	}
	snap := reg.Snapshot()
	if snap["wvq_core_runs_total"] != runs {
		t.Fatalf("runs counter = %v, want %d", snap["wvq_core_runs_total"], runs)
	}
	if snap["wvq_core_stepbatch_seconds_count"] == 0 {
		t.Fatal("stepbatch histogram never observed")
	}
}

// servedCtx returns a request's context as the server's observed middleware
// builds it — a fresh request ID and a logger that carries it — and the ID.
func servedCtx() (context.Context, string) {
	reqID := obs.NewRequestID()
	ctx := obs.WithRequestID(context.Background(), reqID)
	return obs.WithLogger(ctx, obs.NopLogger().With("request_id", reqID)), reqID
}

// TestObservedStepAllocatesNothing pins the allocation rule of an observed
// server: a step under the context serveObserved builds (request ID and
// logger), of a run whose recorder is attached and whose row list is full,
// allocates nothing, and a drain over the retry → instrument → coalesce
// path allocates no more under that context than under a bare one.
func TestObservedStepAllocatesNothing(t *testing.T) {
	f := newFixture(t, 8)
	reg := obs.NewRegistry()
	Observe(reg)
	storage.Observe(reg)
	defer Observe(nil)
	defer storage.Observe(nil)

	ctx, reqID := servedCtx()
	run := NewRun(f.plan, penalty.SSE{}, f.store)
	run.AttachProfile(obs.NewObserver().StartRun(reqID, "allocs"), 1)
	const steps = 100
	if f.plan.DistinctCoefficients() < obs.MaxProfileRows+2*steps {
		t.Fatalf("fixture schedule of %d entries is too short", f.plan.DistinctCoefficients())
	}
	for i := 0; i <= obs.MaxProfileRows; i++ {
		if n, err := run.StepBatchCtx(ctx, 1); n != 1 || err != nil {
			t.Fatalf("warm-up step %d: %d, %v", i, n, err)
		}
	}
	if n := testing.AllocsPerRun(steps, func() {
		if n, err := run.StepBatchCtx(ctx, 1); n != 1 || err != nil {
			t.Fatalf("step: %d, %v", n, err)
		}
	}); n != 0 {
		t.Fatalf("an observed step allocated %v times", n)
	}

	top := storage.Stack{Retry: &storage.RetryConfig{}, Instrument: true, Coalesce: true}.Build(f.store, nil)
	drainAllocs := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(5, func() {
			drainCtx(t, ctx, NewRun(f.plan, penalty.SSE{}, top), 64)
		})
	}
	if served, bare := drainAllocs(ctx), drainAllocs(context.Background()); served > bare {
		t.Fatalf("a drain allocated %v times under the served context, %v under a bare one", served, bare)
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

	snap := o.Profiles()[0]
	if !snap.Finished || !snap.Done {
		t.Fatal("core must mark the run done when it drains")
	}
	if len(snap.Bound) < 2 {
		t.Fatalf("only %d points recorded", len(snap.Bound))
	}
	for i := 1; i < len(snap.Bound); i++ {
		prev, cur := snap.Bound[i-1], snap.Bound[i]
		if cur.Retrieved <= prev.Retrieved {
			t.Fatalf("retrieved not ascending at point %d", i)
		}
		if cur.Bound > prev.Bound {
			t.Fatalf("bound increased from %g to %g at point %d", prev.Bound, cur.Bound, i)
		}
	}
	last := snap.Bound[len(snap.Bound)-1]
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
