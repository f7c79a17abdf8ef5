package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/penalty"
	"repro/internal/sparse"
)

func TestRemainingImportanceTracksSubtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	plan, err := NewPlan(tinyBatch(rng, 3, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	pen := penalty.SSE{}
	imps := plan.Importances(pen)
	var total float64
	for _, v := range imps {
		total += v
	}
	store := newSliceStore(make([]float64, 32))
	run := NewRun(plan, pen, store)
	if math.Abs(run.RemainingImportance()-total) > 1e-9*(1+total) {
		t.Fatalf("initial remaining %g, want %g", run.RemainingImportance(), total)
	}
	sum := total
	for !run.Done() {
		next := run.NextImportance()
		stepOne(run)
		sum -= next
		if math.Abs(run.RemainingImportance()-sum) > 1e-9*(1+total) {
			t.Fatalf("remaining %g, want %g after popping %g", run.RemainingImportance(), sum, next)
		}
	}
	if run.RemainingImportance() != 0 {
		t.Fatalf("remaining %g at completion", run.RemainingImportance())
	}
}

// TestExpectedPenaltyMatchesMonteCarlo validates the live estimate against
// sampled sphere data mid-run.
func TestExpectedPenaltyMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	n := 10
	plan, err := NewPlan(tinyBatch(rng, 3, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	pen := penalty.SSE{}
	store := newSliceStore(make([]float64, n))
	run := NewRun(plan, pen, store)
	stepN(run, plan.DistinctCoefficients()/2)

	radius := 2.5
	want := run.ExpectedPenalty(n, radius)

	// Which keys remain? The schedule's key view gives the retrieval order
	// directly: the first Retrieved() keys are the retained set.
	retained := map[int]bool{}
	for _, key := range run.sched.keys[:run.Retrieved()] {
		retained[key] = true
	}

	const samples = 150000
	var mean float64
	errs := make([]float64, plan.NumQueries())
	data := make([]float64, n)
	for it := 0; it < samples; it++ {
		var norm float64
		for i := range data {
			data[i] = rng.NormFloat64()
			norm += data[i] * data[i]
		}
		norm = math.Sqrt(norm) / radius
		for i := range data {
			data[i] /= norm
		}
		for q := range errs {
			errs[q] = 0
		}
		for i, key := range plan.keys {
			if retained[key] {
				continue
			}
			v := data[key]
			idxs, cs := plan.entryRefs(i)
			for j, qi := range idxs {
				errs[qi] += cs[j] * v
			}
		}
		mean += pen.Eval(errs)
	}
	mean /= samples
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("Monte Carlo %g vs ExpectedPenalty %g", mean, want)
	}
}

func TestStepUntilBound(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	plan, err := NewPlan(tinyBatch(rng, 3, 24), nil)
	if err != nil {
		t.Fatal(err)
	}
	store := newSliceStore(make([]float64, 32))
	run := NewRun(plan, penalty.SSE{}, store)
	mass := 2.0
	initial := run.WorstCaseBound(mass)
	target := initial / 100
	steps := run.StepUntilBound(mass, target)
	if steps == 0 {
		t.Fatal("expected progress toward the bound")
	}
	if !run.Done() && run.WorstCaseBound(mass) > target {
		t.Fatalf("bound %g still above target %g", run.WorstCaseBound(mass), target)
	}
	// Idempotent once satisfied.
	if run.StepUntilBound(mass, target) != 0 {
		t.Fatal("second call should not step")
	}
	// target 0 runs to completion.
	run2 := NewRun(plan, penalty.SSE{}, store)
	run2.StepUntilBound(mass, 0)
	if !run2.Done() {
		t.Fatal("target 0 should drain the run")
	}
}

func TestExpectedPenaltyEdgeCases(t *testing.T) {
	plan, err := NewPlan([]sparse.Vector{{1: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := NewRun(plan, penalty.SSE{}, newSliceStore(make([]float64, 4)))
	if run.ExpectedPenalty(0, 1) != 0 {
		t.Fatal("zero cells should yield 0")
	}
	drainRun(run)
	if run.ExpectedPenalty(4, 1) != 0 {
		t.Fatal("completed run should have zero expected penalty")
	}
	if run.RemainingImportance() != 0 {
		t.Fatal("completed run should have zero remaining importance")
	}
}
