package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// fixture builds a small dataset, a partition SUM batch, its wavelet plan
// and a populated store.
type fixture struct {
	schema *dataset.Schema
	dist   *dataset.Distribution
	batch  query.Batch
	plan   *Plan
	store  *storage.HashStore
	truth  []float64
}

func newFixture(t *testing.T, numRanges int) *fixture {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y", "m"}, []int{16, 16, 8})
	dist := dataset.Uniform(schema, 4000, 7)
	ranges, err := query.RandomPartition(schema, numRanges, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "m")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewWaveletPlan(batch, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	hat, err := dist.Transform(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		schema: schema,
		dist:   dist,
		batch:  batch,
		plan:   plan,
		store:  storage.NewHashStoreFromDense(hat, 0),
		truth:  batch.EvaluateDirect(dist),
	}
}

// stepOne advances r by one schedule entry, a batch of one, and reports
// whether it advanced.
func stepOne(r *Run) bool {
	n, _ := r.StepBatchCtx(context.Background(), 1) // a background context never ends
	return n > 0
}

// stepN takes up to n single steps and returns how many it took.
func stepN(r *Run, n int) int {
	done := 0
	for done < n && stepOne(r) {
		done++
	}
	return done
}

// stepBatch advances r by up to b entries in one batched retrieval.
func stepBatch(r *Run, b int) int {
	n, _ := r.StepBatchCtx(context.Background(), b) // a background context never ends
	return n
}

// drainRun runs r to completion one entry at a time.
func drainRun(r *Run) {
	_ = r.RunToCompletionCtx(context.Background()) // a background context never ends
}

// mustExact is Plan.Exact over a store that cannot fail.
func mustExact(p *Plan, s storage.Store) []float64 {
	est, err := p.Exact(context.Background(), s)
	if err != nil {
		panic(err)
	}
	return est
}

// mustExactOn is mustExact on the given number of workers.
func mustExactOn(p *Plan, s storage.Store, workers int) []float64 {
	est, err := p.exact(context.Background(), s, workers)
	if err != nil {
		panic(err)
	}
	return est
}

func assertClose(t *testing.T, got, want []float64, tol float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: query %d: got %g want %g", ctx, i, got[i], want[i])
		}
	}
}

func TestNewPlanMergesSharedKeys(t *testing.T) {
	v0 := sparse.Vector{1: 2.0, 5: 1.0}
	v1 := sparse.Vector{5: -3.0, 9: 4.0}
	plan, err := NewPlan([]sparse.Vector{v0, v1}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.DistinctCoefficients() != 3 {
		t.Fatalf("DistinctCoefficients = %d, want 3", plan.DistinctCoefficients())
	}
	if plan.TotalQueryCoefficients() != 4 {
		t.Fatalf("TotalQueryCoefficients = %d, want 4", plan.TotalQueryCoefficients())
	}
	if got := plan.SharingFactor(); got != 4.0/3.0 {
		t.Fatalf("SharingFactor = %g", got)
	}
	if plan.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d", plan.NumQueries())
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(nil, nil); err == nil {
		t.Error("empty batch should fail")
	}
	if _, err := NewPlan([]sparse.Vector{{1: 1}}, []string{"a", "b"}); err == nil {
		t.Error("label count mismatch should fail")
	}
	p, err := NewPlan([]sparse.Vector{{1: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels[0] != "q0" {
		t.Fatalf("default label = %q", p.Labels[0])
	}
}

func TestNewWaveletPlanRejectsInsufficientFilter(t *testing.T) {
	schema := dataset.MustSchema([]string{"x"}, []int{16})
	q, err := query.Sum(schema, query.FullDomain(schema), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWaveletPlan(query.Batch{q}, wavelet.Haar); err == nil {
		t.Error("Haar on degree-1 batch should be rejected")
	}
	if _, err := NewWaveletPlan(query.Batch{}, wavelet.Db4); err == nil {
		t.Error("empty batch should be rejected")
	}
}

func TestExactMatchesGroundTruth(t *testing.T) {
	fx := newFixture(t, 12)
	got := mustExact(fx.plan, fx.store)
	assertClose(t, got, fx.truth, 1e-6, "exact")
	if fx.store.Retrievals() != int64(fx.plan.DistinctCoefficients()) {
		t.Fatalf("retrievals %d != distinct %d", fx.store.Retrievals(), fx.plan.DistinctCoefficients())
	}
}

func TestRunToCompletionMatchesExact(t *testing.T) {
	fx := newFixture(t, 12)
	run := NewRun(fx.plan, penalty.SSE{}, fx.store)
	drainRun(run)
	assertClose(t, run.Estimates(), fx.truth, 1e-6, "progressive-complete")
	if run.Retrieved() != fx.plan.DistinctCoefficients() {
		t.Fatalf("retrieved %d != distinct %d", run.Retrieved(), fx.plan.DistinctCoefficients())
	}
	if !run.Done() || stepOne(run) {
		t.Fatal("run should be done")
	}
	if run.NextImportance() != 0 || run.WorstCaseBound(5) != 0 {
		t.Fatal("importance should be 0 when done")
	}
}

func TestRunPopsImportancesInNonIncreasingOrder(t *testing.T) {
	fx := newFixture(t, 8)
	run := NewRun(fx.plan, penalty.SSE{}, fx.store)
	prev := math.Inf(1)
	for !run.Done() {
		next := run.NextImportance()
		if next > prev+1e-12 {
			t.Fatalf("importance increased: %g after %g", next, prev)
		}
		prev = next
		stepOne(run)
	}
}

func TestProgressiveErrorShrinks(t *testing.T) {
	fx := newFixture(t, 16)
	run := NewRun(fx.plan, penalty.SSE{}, fx.store)
	sseAt := func() float64 {
		e := make([]float64, len(fx.truth))
		for i, v := range run.Estimates() {
			e[i] = v - fx.truth[i]
		}
		return penalty.SSE{}.Eval(e)
	}
	stepN(run, 16)
	early := sseAt()
	stepN(run, fx.plan.DistinctCoefficients()/2)
	late := sseAt()
	if late > early {
		t.Fatalf("SSE grew from %g to %g", early, late)
	}
	drainRun(run)
	if final := sseAt(); final > 1e-9*(1+penalty.SSE{}.Eval(fx.truth)) {
		t.Fatalf("final SSE %g not ~0", final)
	}
}

func TestStepNAndSnapshot(t *testing.T) {
	fx := newFixture(t, 6)
	run := NewRun(fx.plan, penalty.SSE{}, fx.store)
	if n := stepN(run, 5); n != 5 {
		t.Fatalf("advanced %d of 5", n)
	}
	snap := run.Snapshot()
	stepN(run, 10)
	changed := false
	for i, v := range run.Estimates() {
		if v != snap[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("estimates did not change after more steps (suspicious)")
	}
	// A done run advances no further.
	drainRun(run)
	if n := stepN(run, 3); n != 0 {
		t.Fatalf("advanced %d after completion", n)
	}
}

func TestRunWithCheckpoints(t *testing.T) {
	fx := newFixture(t, 6)
	run := NewRun(fx.plan, penalty.SSE{}, fx.store)
	var seen []int
	run.RunWithCheckpoints([]int{1, 4, 16, 1 << 30}, func(retrieved int, est []float64) {
		seen = append(seen, retrieved)
	})
	if len(seen) < 3 || seen[0] != 1 || seen[1] != 4 || seen[2] != 16 {
		t.Fatalf("checkpoints = %v", seen)
	}
	last := seen[len(seen)-1]
	if last != fx.plan.DistinctCoefficients() {
		t.Fatalf("final checkpoint %d != distinct %d", last, fx.plan.DistinctCoefficients())
	}
	if !run.Done() {
		t.Fatal("run should be complete")
	}
}

func TestSharingFactorIsSubstantialForPartitions(t *testing.T) {
	fx := newFixture(t, 32)
	if fx.plan.SharingFactor() < 1.5 {
		t.Fatalf("expected substantial sharing for a partition batch, got %.2f",
			fx.plan.SharingFactor())
	}
}

func TestRoundRobinMatchesExactButCostsMore(t *testing.T) {
	fx := newFixture(t, 16)
	vectors := make([]sparse.Vector, len(fx.batch))
	for i, q := range fx.batch {
		v, err := q.Coefficients(wavelet.Db4)
		if err != nil {
			t.Fatal(err)
		}
		vectors[i] = v
	}
	fx.store.ResetStats()
	rr, err := NewRoundRobin(vectors, fx.store)
	if err != nil {
		t.Fatal(err)
	}
	rr.RunToCompletion()
	assertClose(t, rr.Estimates(), fx.truth, 1e-6, "round-robin")
	if rr.Retrieved() != fx.plan.TotalQueryCoefficients() {
		t.Fatalf("round-robin retrieved %d, want %d", rr.Retrieved(), fx.plan.TotalQueryCoefficients())
	}
	if rr.Retrieved() <= fx.plan.DistinctCoefficients() {
		t.Fatalf("round-robin should cost more than shared: %d vs %d",
			rr.Retrieved(), fx.plan.DistinctCoefficients())
	}
	if rr.Step() {
		t.Fatal("exhausted round-robin should not step")
	}
}

func TestNewRoundRobinEmpty(t *testing.T) {
	if _, err := NewRoundRobin(nil, storage.NewHashStore()); err == nil {
		t.Error("empty batch should fail")
	}
}

func TestCursoredRunPrioritizesCursor(t *testing.T) {
	// After a small number of steps, the cursored run must have lower
	// cursored error than the SSE run on the cursored positions.
	fx := newFixture(t, 24)
	cursor := []int{0, 1, 2, 3}
	cur, err := penalty.Cursored(len(fx.batch), cursor, 100)
	if err != nil {
		t.Fatal(err)
	}
	evalCursored := func(est []float64) float64 {
		e := make([]float64, len(fx.truth))
		for i := range e {
			e[i] = est[i] - fx.truth[i]
		}
		return cur.Eval(e)
	}
	budget := fx.plan.DistinctCoefficients() / 8

	runSSE := NewRun(fx.plan, penalty.SSE{}, fx.store)
	stepN(runSSE, budget)
	runCur := NewRun(fx.plan, cur, fx.store)
	stepN(runCur, budget)

	if evalCursored(runCur.Estimates()) > evalCursored(runSSE.Estimates()) {
		t.Fatalf("cursored run (%g) should beat SSE run (%g) on cursored penalty",
			evalCursored(runCur.Estimates()), evalCursored(runSSE.Estimates()))
	}
}

func TestWorstCaseBoundHoldsOnAdversarialData(t *testing.T) {
	// Theorem 1's bound: place the whole data mass on the most important
	// unretrieved wavelet; the resulting penalty equals K^α·ι(ξ′).
	v0 := sparse.Vector{1: 2.0, 5: 1.0}
	v1 := sparse.Vector{5: -3.0, 9: 4.0}
	plan, err := NewPlan([]sparse.Vector{v0, v1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pen := penalty.SSE{}
	// Retrieve one coefficient, then attack the next most important one.
	zero := storage.NewHashStore() // all-zero data: estimates stay 0
	run := NewRun(plan, pen, zero)
	stepOne(run)
	next := run.NextImportance()
	k := 2.5
	bound := run.WorstCaseBound(k)
	if math.Abs(bound-k*k*next) > 1e-12 {
		t.Fatalf("bound %g != K²·ι = %g", bound, k*k*next)
	}
	// Adversarial database: Δ̂ concentrated (mass K) on the most important
	// unretrieved key. Since estimates are zero, the error on query i is
	// K·q̂_i[ξ′], so SSE = K²·ι(ξ′) — the bound is attained.
	imps := plan.Importances(pen)
	// Find unretrieved keys: the run has popped the largest-importance one.
	max := -1.0
	var maxIdx int
	for i := range imps {
		if imps[i] > max {
			max = imps[i]
			maxIdx = i
		}
	}
	// The second most important entry is what NextImportance reports now.
	second := -1.0
	var secondIdx int
	for i := range imps {
		if i == maxIdx {
			continue
		}
		if imps[i] > second {
			second = imps[i]
			secondIdx = i
		}
	}
	if math.Abs(next-second) > 1e-12 {
		t.Fatalf("NextImportance %g != second-largest %g", next, second)
	}
	adversarialKey := plan.keys[secondIdx]
	secondIdxs, secondCoeffs := plan.entryRefs(secondIdx)
	var sse float64
	for qi := 0; qi < plan.NumQueries(); qi++ {
		var qc float64
		for k2, idx := range secondIdxs {
			if int(idx) == qi {
				qc = secondCoeffs[k2]
			}
		}
		errQ := k * qc
		sse += errQ * errQ
	}
	if math.Abs(sse-bound) > 1e-9*(1+bound) {
		t.Fatalf("adversarial SSE %g != bound %g (key %d)", sse, bound, adversarialKey)
	}
}

func TestExactWithArrayStore(t *testing.T) {
	// Same plan against array-backed storage must agree with hash-backed.
	fx := newFixture(t, 10)
	hat, err := fx.dist.Transform(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	arr := storage.NewArrayStore(hat)
	got := mustExact(fx.plan, arr)
	assertClose(t, got, fx.truth, 1e-6, "array-store")
}

func BenchmarkPlanConstruction(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y", "m"}, []int{32, 32, 16})
	ranges, err := query.RandomPartition(schema, 64, 3)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "m")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewWaveletPlan(batch, wavelet.Db4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunToCompletion(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y", "m"}, []int{32, 32, 16})
	dist := dataset.Uniform(schema, 20000, 7)
	ranges, err := query.RandomPartition(schema, 64, 3)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "m")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := NewWaveletPlan(batch, wavelet.Db4)
	if err != nil {
		b.Fatal(err)
	}
	hat, err := dist.Transform(wavelet.Db4)
	if err != nil {
		b.Fatal(err)
	}
	store := storage.NewHashStoreFromDense(hat, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewRun(plan, penalty.SSE{}, store)
		drainRun(run)
	}
}
