package repro

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// robustFixture builds a small database plus a plan that touches enough
// distinct coefficients for fault schedules to bite.
func robustFixture(t *testing.T) (*Database, *Plan) {
	t.Helper()
	schema, err := NewSchema([]string{"x", "y"}, []int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 500, 11)
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ParseBatch(schema, `
		COUNT() WHERE x <= 40;
		SUM(y) WHERE x <= 63;
		COUNT() WHERE y <= 20
	`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	return db, plan
}

func TestInjectFaultsRestoreRoundTrip(t *testing.T) {
	db, plan := robustFixture(t)
	ctx := context.Background()
	want, err := db.ExactCtx(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}

	db.SetStack(Stack{Fault: &FaultConfig{ErrorRate: 1}})
	if _, err := db.ExactCtx(ctx, plan); !errors.Is(err, ErrInjected) {
		t.Fatalf("ExactCtx under total fault injection: %v, want ErrInjected", err)
	}
	// The context-free convenience has no error to return: it panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Exact() under total fault injection did not panic")
			}
		}()
		db.Exact(plan)
	}()

	stack := db.Stack()
	stack.Fault = nil
	db.SetStack(stack)
	got, err := db.ExactCtx(ctx, plan)
	if err != nil {
		t.Fatalf("ExactCtx after restore: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restore did not rewind: query %d %g != %g", i, got[i], want[i])
		}
	}
}

func TestEnableRetriesAbsorbsTransientFaults(t *testing.T) {
	db, plan := robustFixture(t)
	ctx := context.Background()
	want, err := db.ExactCtx(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	db.SetStack(Stack{
		Fault: &FaultConfig{ErrorEvery: 3},
		Retry: &RetryConfig{
			MaxAttempts: 8,
			BaseDelay:   10 * time.Microsecond,
			MaxDelay:    100 * time.Microsecond,
			Seed:        1,
		},
	})
	got, err := db.ExactCtx(ctx, plan)
	if err != nil {
		t.Fatalf("retries should absorb every Nth-call fault: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query %d: %g != fault-free %g", i, got[i], want[i])
		}
	}
}

func TestDegradedRunThroughFacade(t *testing.T) {
	db, plan := robustFixture(t)
	exact := db.Exact(plan)
	mass, err := db.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	db.SetStack(Stack{Fault: &FaultConfig{ErrorRate: 0.25, Seed: 41}})
	run := db.NewRun(plan, SSE())
	if err := run.RunToCompletionCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !run.Done() || !run.Degraded() {
		t.Fatalf("want degraded completion, got done=%v degraded=%v", run.Done(), run.Degraded())
	}
	if run.SkippedImportance() <= 0 {
		t.Fatal("SkippedImportance must be positive after skips")
	}
	for i, est := range run.Estimates() {
		bound := run.QueryErrorBound(i, mass)
		if actual := math.Abs(est - exact[i]); actual > bound*(1+1e-9)+1e-12 {
			t.Fatalf("query %d: error %g exceeds bound %g", i, actual, bound)
		}
	}
}

// TestEvaluatorInterfaceParity drives the same batch through the Evaluator
// interface backed by a Database, a Session and a pinned MVCC Snapshot: every
// route must agree bit for bit — Exact, ExactCtx and a drain — and each
// route's reads must reach its database's count.
func TestEvaluatorInterfaceParity(t *testing.T) {
	db, plan := robustFixture(t)
	sess := db.NewSession()
	mdb, _ := robustFixture(t)
	if err := mdb.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	snap, err := mdb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// A write after the pin must not reach the snapshot.
	if err := mdb.Insert([]int{3, 3}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := db.Exact(plan)
	for _, route := range []struct {
		ev    Evaluator
		owner *Database
	}{{db, db}, {sess, db}, {snap, mdb}} {
		ev, before := route.ev, route.owner.Retrievals()
		exact := ev.Exact(plan)
		exactCtx, err := ev.ExactCtx(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if exact[i] != want[i] || exactCtx[i] != want[i] {
				t.Fatalf("evaluator %T disagrees on query %d: %g %g, want %g",
					ev, i, exact[i], exactCtx[i], want[i])
			}
		}
		run := ev.NewRun(plan, SSE())
		if err := run.RunToCompletionCtx(ctx); err != nil {
			t.Fatal(err)
		}
		for i, est := range run.Estimates() {
			if est != want[i] {
				t.Fatalf("evaluator %T run estimate %d: %g != %g", ev, i, est, want[i])
			}
		}
		if route.owner.Retrievals() == before {
			t.Fatalf("evaluator %T: its reads did not reach its database's count", ev)
		}
	}
}

// TestSessionFallibleSurfacesFaults: a session's cache sits above the
// database store (captured at NewSession time), so injected faults must
// surface through the session on cache misses — while cache hits never
// touch the faulty path at all.
func TestSessionFallibleSurfacesFaults(t *testing.T) {
	db, plan := robustFixture(t)
	want := db.Exact(plan)
	var outage atomic.Bool
	outage.Store(true)
	db.SetStack(Stack{Fault: &FaultConfig{ErrorRate: 1, KeyMatch: func(int) bool { return outage.Load() }}})
	sess := db.NewSession()
	ctx := context.Background()
	if _, err := sess.ExactCtx(ctx, plan); !errors.Is(err, ErrInjected) {
		t.Fatalf("session ExactCtx: %v, want ErrInjected", err)
	}
	// A pass while the outage is lifted warms the cache …
	outage.Store(false)
	for i, v := range sess.Exact(plan) {
		if v != want[i] {
			t.Fatalf("session Exact with the outage lifted: query %d %g != %g", i, v, want[i])
		}
	}
	// … after which evaluation succeeds from cache hits alone, even though
	// every miss fails again: errors were never cached, hits never reach
	// the faulty path.
	outage.Store(true)
	got, err := sess.ExactCtx(ctx, plan)
	if err != nil {
		t.Fatalf("session ExactCtx from warm cache: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query %d from warm cache: %g != %g", i, got[i], want[i])
		}
	}
}
