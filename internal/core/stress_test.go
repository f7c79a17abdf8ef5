package core

import (
	"sync"
	"testing"

	"repro/internal/penalty"
)

// TestConcurrentRunsSharded is the concurrency stress test: many goroutines
// each drive their own progressive run to completion against one shared
// hash store, mixing Step, StepN and StepBatch progressions plus
// ExactParallel calls. Under -race this validates that reads need no lock
// end to end; the assertions validate that every run still produces the
// sequential answer and that the shared atomic retrieval counter accounts for
// every retrieval issued by every goroutine.
func TestConcurrentRunsSharded(t *testing.T) {
	f := newFixture(t, 40)
	shared := newFixture(t, 40).store // the same coefficients, not yet read
	want := f.plan.Exact(f.store)
	distinct := f.plan.DistinctCoefficients()

	const goroutines = 12
	var wg sync.WaitGroup
	estimates := make([][]float64, goroutines)
	retrieved := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // one retrieval at a time
				run := NewRun(f.plan, penalty.SSE{}, shared)
				run.RunToCompletion()
				estimates[g] = run.Estimates()
				retrieved[g] = int64(run.Retrieved())
			case 1: // batched stepping with a mid-size batch
				run := NewRun(f.plan, penalty.SSE{}, shared)
				for run.StepBatch(17) > 0 {
				}
				estimates[g] = run.Estimates()
				retrieved[g] = int64(run.Retrieved())
			case 2: // exact evaluation with concurrent batched fetch
				estimates[g] = f.plan.ExactParallel(shared, 4)
				retrieved[g] = int64(distinct)
			}
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		if len(estimates[g]) != len(want) {
			t.Fatalf("goroutine %d: %d estimates, want %d", g, len(estimates[g]), len(want))
		}
		for qi := range want {
			got := estimates[g][qi]
			// Progressive runs accumulate in importance order, Exact in key
			// order, so compare within rounding; ExactParallel (g%3==2) is
			// bit-identical to Exact by construction.
			if g%3 == 2 {
				if got != want[qi] {
					t.Fatalf("goroutine %d query %d: %v, want bit-identical %v", g, qi, got, want[qi])
				}
			} else if diff := got - want[qi]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("goroutine %d query %d: %v, want ≈%v", g, qi, got, want[qi])
			}
		}
		if retrieved[g] != int64(distinct) {
			t.Fatalf("goroutine %d retrieved %d, want %d", g, retrieved[g], distinct)
		}
	}
	// Every goroutine performed exactly `distinct` retrievals against the
	// shared store; the atomic counter must have seen all of them.
	if got, want := shared.Retrievals(), int64(goroutines*distinct); got != want {
		t.Fatalf("shared store counted %d retrievals, want %d", got, want)
	}
}
