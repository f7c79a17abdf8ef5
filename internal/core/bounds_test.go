package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/penalty"
	"repro/internal/sparse"
)

// stepRetrieved reports whether the entry at schedule step j has been
// retrieved: j lies before the cursor and was not skipped by a failed
// retrieval.
func (r *Run) stepRetrieved(j int) bool {
	_, skipped := slices.BinarySearch(r.skipped, j)
	return j < r.cursor && !skipped
}

// entryRetrieved reports whether master-list entry i has been retrieved,
// finding its step by a scan of the schedule.
func (r *Run) entryRetrieved(i int32) bool {
	return r.stepRetrieved(slices.Index(r.sched.order, i))
}

func TestQueryErrorBoundHoldsAndShrinks(t *testing.T) {
	fx := newFixture(t, 10)
	// K = Σ|Δ̂| over the store.
	var mass float64
	fx.store.Walk(func(_ int, v float64) bool {
		mass += math.Abs(v)
		return true
	})
	run := NewRun(fx.plan, penalty.SSE{}, fx.store)
	prev := run.QueryErrorBounds(mass)
	for step := 0; !run.Done(); step++ {
		stepOne(run)
		if step%500 != 0 {
			continue
		}
		cur := run.QueryErrorBounds(mass)
		for i := range cur {
			// The bound never increases.
			if cur[i] > prev[i]+1e-9*(1+prev[i]) {
				t.Fatalf("step %d query %d: bound grew %g -> %g", step, i, prev[i], cur[i])
			}
			// The bound dominates the actual error on the real database.
			actual := math.Abs(run.Estimates()[i] - fx.truth[i])
			if actual > cur[i]+1e-6*(1+cur[i]) {
				t.Fatalf("step %d query %d: actual error %g exceeds bound %g",
					step, i, actual, cur[i])
			}
		}
		prev = cur
	}
	for i, b := range run.QueryErrorBounds(mass) {
		if b != 0 {
			t.Fatalf("query %d: bound %g after completion", i, b)
		}
	}
}

func TestQueryErrorBoundAttainedByPointMass(t *testing.T) {
	// Build a tiny plan; after retrieving some entries, concentrate the
	// data mass on the query's largest unretrieved coefficient: the actual
	// error must equal the bound.
	rng := rand.New(rand.NewSource(811))
	vectors := tinyBatch(rng, 3, 16)
	plan, err := NewPlan(vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	mass := 1.75
	zero := newSliceStore(make([]float64, 16))
	run := NewRun(plan, penalty.SSE{}, zero)
	stepN(run, plan.DistinctCoefficients()/2)

	for qi := 0; qi < plan.NumQueries(); qi++ {
		bound := run.QueryErrorBound(qi, mass)
		if bound == 0 {
			continue
		}
		// Find the query's largest unretrieved |coefficient| and its key by
		// replaying the plan against the retrieved prefix.
		var bestMag float64
		bestKey := -1
		var bestCoeff float64
		for i := range plan.keys {
			if run.entryRetrieved(int32(i)) {
				continue
			}
			idxs, cs := plan.entryRefs(i)
			for k, q := range idxs {
				if int(q) == qi {
					if m := math.Abs(cs[k]); m > bestMag {
						bestMag = m
						bestKey = plan.keys[i]
						bestCoeff = cs[k]
					}
				}
			}
		}
		if bestKey < 0 {
			t.Fatalf("query %d: bound %g but no unretrieved coefficients", qi, bound)
		}
		if math.Abs(bound-mass*bestMag) > 1e-12*(1+bound) {
			t.Fatalf("query %d: bound %g != K·max %g", qi, bound, mass*bestMag)
		}
		// Adversarial database: estimates are zero (zero store), so the
		// error equals ⟨q̂, Δ̂⟩ restricted to unretrieved keys = mass·coeff.
		adversarialErr := math.Abs(mass * bestCoeff)
		if math.Abs(adversarialErr-bound) > 1e-12*(1+bound) {
			t.Fatalf("query %d: adversarial error %g != bound %g", qi, adversarialErr, bound)
		}
	}
}

func TestQueryErrorBoundLazyInitCostsNothingUntilUsed(t *testing.T) {
	plan, err := NewPlan([]sparse.Vector{{1: 1, 2: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := NewRun(plan, penalty.SSE{}, newSliceStore(make([]float64, 4)))
	// The bound index lives on the cached Schedule; a run keeps no bound state.
	if a := testing.AllocsPerRun(10, func() { _ = run.QueryErrorBound(0, 1) }); a != 0 {
		t.Fatalf("QueryErrorBound allocated %v times per call", a)
	}
}
