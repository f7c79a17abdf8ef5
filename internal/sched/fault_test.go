package sched

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/penalty"
	"repro/internal/storage"
)

// TestScheduledRunDegradesUnderFaults drives a run through the scheduler's
// fallible slices over a store with a deterministic key-based fault schedule
// and checks the degraded completion contract: the run drains, reports its
// skips, still carries bounds, and lands on exactly the estimates an
// unscheduled fallible run produces under the same schedule.
func TestScheduledRunDegradesUnderFaults(t *testing.T) {
	plan, store, mass := fixture(t, 8, 50, 2048, 31)
	cfg := storage.FaultConfig{ErrorRate: 0.2, Seed: 17}
	faulty := storage.NewFaultStore(store, cfg)
	s := New(Config{Slice: 16, Workers: 2})
	defer s.Close()

	run := core.NewRun(plan, penalty.SSE{}, faulty)
	tk, err := s.Submit(context.Background(), Job{Run: run, Mass: mass})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tk.Final()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done {
		t.Fatal("degraded run must still drain the schedule")
	}
	if !p.Degraded || p.Skipped == 0 {
		t.Fatalf("expected degradation, got %+v", p)
	}
	if p.SkippedImportance <= 0 {
		t.Fatal("SkippedImportance must be positive on a degraded run")
	}
	if p.Bounds == nil {
		t.Fatal("a degraded completion must keep its error bounds")
	}

	// Key-based faults are order-independent, so an unscheduled fallible run
	// over the same schedule skips the same entries and accumulates in the
	// same order: bit-identical estimates.
	ref := core.NewRun(plan, penalty.SSE{}, storage.NewFaultStore(store, cfg))
	if err := ref.RunToCompletionCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ref.SkippedCount() != p.Skipped {
		t.Fatalf("scheduler skipped %d, reference %d", p.Skipped, ref.SkippedCount())
	}
	for q, e := range p.Estimates {
		if e != ref.Estimates()[q] {
			t.Fatalf("query %d: scheduled %g != reference %g", q, e, ref.Estimates()[q])
		}
	}
	for q, b := range p.Bounds {
		if want := ref.QueryErrorBounds(mass)[q]; b != want {
			t.Fatalf("bound %d: %g != %g", q, b, want)
		}
	}
}

// TestSchedulerFaultsUnderConcurrentLoad floods the scheduler with runs over
// one shared faulty coalescing store — the -race acceptance shape: injected
// errors at every slice, concurrent workers, shared flights, no hangs, and
// every ticket resolves with the same deterministic degradation.
func TestSchedulerFaultsUnderConcurrentLoad(t *testing.T) {
	plan, store, mass := fixture(t, 8, 60, 2048, 32)
	faulty := storage.NewFaultStore(store, storage.FaultConfig{ErrorRate: 0.15, Seed: 5})
	co := storage.NewCoalescingStore(faulty)
	s := New(Config{Slice: 8, Workers: 4})
	defer s.Close()

	var tickets []*Ticket
	for i := 0; i < 6; i++ {
		tk, err := s.Submit(context.Background(), Job{
			Run:  core.NewRun(plan, penalty.SSE{}, co),
			Mass: mass,
		})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	var first *Progress
	for i, tk := range tickets {
		p, err := tk.Final()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if !p.Done || !p.Degraded {
			t.Fatalf("ticket %d: %+v, want degraded completion", i, p)
		}
		if first == nil {
			first = &p
			continue
		}
		if p.Skipped != first.Skipped {
			t.Fatalf("ticket %d skipped %d, ticket 0 skipped %d — fault schedule not deterministic",
				i, p.Skipped, first.Skipped)
		}
		for q, e := range p.Estimates {
			if e != first.Estimates[q] {
				t.Fatalf("ticket %d query %d: %g != %g", i, q, e, first.Estimates[q])
			}
		}
	}
}

// TestSchedulerDeadlineWithInjectedLatency: injected latency pushes a run
// past its context deadline; the ticket resolves with the deadline error and
// partial progress instead of hanging out the delay.
func TestSchedulerDeadlineWithInjectedLatency(t *testing.T) {
	plan, store, mass := fixture(t, 4, 40, 2048, 33)
	faulty := storage.NewFaultStore(store, storage.FaultConfig{
		DelayRate: 1, Delay: time.Hour, Seed: 2,
	})
	s := New(Config{Slice: 4, Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	tk, err := s.Submit(ctx, Job{Run: core.NewRun(plan, penalty.SSE{}, faulty), Mass: mass})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tk.Final()
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if p.Done {
		t.Fatal("run cannot have completed through an hour of injected latency")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline took %v to enforce", elapsed)
	}
	if p.Degraded {
		t.Fatal("cancellation must not be reported as degradation")
	}
}

// TestSchedulerRetriesAbsorbTransientFaults layers the retry store over an
// Nth-call fault schedule: every injected failure is transient, so the
// scheduled run completes exactly, not degraded.
func TestSchedulerRetriesAbsorbTransientFaults(t *testing.T) {
	plan, store, mass := fixture(t, 6, 40, 2048, 34)
	faulty := storage.NewFaultStore(store, storage.FaultConfig{ErrorEvery: 3})
	retried := storage.NewRetryStore(faulty, storage.RetryConfig{
		MaxAttempts: 8,
		BaseDelay:   10 * time.Microsecond,
		MaxDelay:    100 * time.Microsecond,
		Seed:        1,
	})
	s := New(Config{Slice: 16, Workers: 2})
	defer s.Close()
	tk, err := s.Submit(context.Background(), Job{
		Run:  core.NewRun(plan, penalty.SSE{}, retried),
		Mass: mass,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tk.Final()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done || p.Degraded {
		t.Fatalf("retries should have absorbed every transient fault: %+v", p)
	}
	ref := core.NewRun(plan, penalty.SSE{}, store)
	if err := ref.RunToCompletionCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for q, e := range p.Estimates {
		if e != ref.Estimates()[q] {
			t.Fatalf("query %d: %g != fault-free %g", q, e, ref.Estimates()[q])
		}
	}
}
