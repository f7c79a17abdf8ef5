package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// shapePair builds two vector batches with identical sparsity shape (same
// per-query key sets) but independent coefficient values — the re-weighted
// workload Bind exists for.
func shapePair(rng *rand.Rand, queries, keysPer, keySpace int) (v1, v2 []sparse.Vector) {
	v1 = make([]sparse.Vector, queries)
	v2 = make([]sparse.Vector, queries)
	for q := range v1 {
		v1[q] = sparse.New()
		v2[q] = sparse.New()
		for len(v1[q]) < keysPer {
			k := rng.Intn(keySpace)
			if _, dup := v1[q][k]; dup {
				continue
			}
			v1[q][k] = rng.NormFloat64()
			v2[q][k] = rng.NormFloat64()
		}
	}
	return v1, v2
}

// assertPlansBitIdentical compares two plans CSR-cell-for-cell, coefficients
// by exact float bits.
func assertPlansBitIdentical(t *testing.T, got, want *Plan, ctx string) {
	t.Helper()
	if got.NumQueries() != want.NumQueries() {
		t.Fatalf("%s: %d vs %d queries", ctx, got.NumQueries(), want.NumQueries())
	}
	if len(got.keys) != len(want.keys) || len(got.queryIdx) != len(want.queryIdx) {
		t.Fatalf("%s: CSR sizes differ", ctx)
	}
	for i := range got.keys {
		if got.keys[i] != want.keys[i] || got.offsets[i] != want.offsets[i] {
			t.Fatalf("%s: entry %d skeleton differs", ctx, i)
		}
	}
	for i := range got.queryIdx {
		if got.queryIdx[i] != want.queryIdx[i] {
			t.Fatalf("%s: queryIdx[%d] differs", ctx, i)
		}
		if math.Float64bits(got.coeffs[i]) != math.Float64bits(want.coeffs[i]) {
			t.Fatalf("%s: coeff[%d] %v != %v", ctx, i, got.coeffs[i], want.coeffs[i])
		}
	}
	if got.totalQueryCoefficients != want.totalQueryCoefficients {
		t.Fatalf("%s: totalQueryCoefficients differ", ctx)
	}
}

// templateStore builds a dense-backed store covering every key of the plans
// under test with deterministic nonzero-ish values.
func templateStore(rng *rand.Rand, keySpace int) storage.Store {
	dense := make([]float64, keySpace)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	return storage.NewHashStoreFromDense(dense, 0)
}

// invariantPenalties is the penalty grid the bind bit-identity tests sweep.
func invariantPenalties(t *testing.T, queries int) []penalty.Penalty {
	t.Helper()
	weights := make([]float64, queries)
	for i := range weights {
		weights[i] = 1 + float64(i%5)
	}
	weighted, err := penalty.NewWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := penalty.NewLpNorm(1)
	if err != nil {
		t.Fatal(err)
	}
	return []penalty.Penalty{penalty.SSE{}, weighted, lp}
}

func TestBindBitIdenticalToFreshPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, queries := range []int{1, 3, 8} {
		for _, keysPer := range []int{1, 7, 23} {
			v1, v2 := shapePair(rng, queries, keysPer, 512)
			tmpl, err := NewPlan(v1, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := tmpl.Bind(v2, nil)
			if err != nil {
				t.Fatalf("bind %dx%d: %v", queries, keysPer, err)
			}
			fresh, err := NewPlan(v2, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertPlansBitIdentical(t, bound, fresh, "bound plan")
			// The bound view must share — not copy — the template skeleton.
			if len(tmpl.keys) > 0 && &bound.keys[0] != &tmpl.keys[0] {
				t.Fatalf("bound plan copied the template key array")
			}

			store := templateStore(rng, 512)
			assertBitIdentical(t, bound.Exact(store), fresh.Exact(store), "Exact")

			for _, pen := range invariantPenalties(t, queries) {
				rb := NewRun(bound, pen, store)
				rf := NewRun(fresh, pen, store)
				for !rb.Done() || !rf.Done() {
					if rb.Step() != rf.Step() {
						t.Fatalf("runs disagree on completion")
					}
					assertBitIdentical(t, rb.Estimates(), rf.Estimates(), "progressive estimates")
					if math.Float64bits(rb.WorstCaseBound(10)) != math.Float64bits(rf.WorstCaseBound(10)) {
						t.Fatalf("bounds diverge at step %d", rb.Retrieved())
					}
				}
			}
		}
	}
}

func TestBindWaveletMatchesFreshWaveletPlan(t *testing.T) {
	f := newFixture(t, 9)
	// Re-weight the batch: same ranges, same term powers, scaled
	// coefficients — the canonical same-shape workload.
	batch2 := cloneBatchScaled(f.batch, 3.5)
	vectors, labels, err := batchVectors(batch2, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := f.plan.Bind(vectors, labels)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	fresh, err := NewWaveletPlan(batch2, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansBitIdentical(t, bound, fresh, "wavelet bound plan")
	assertBitIdentical(t, bound.Exact(f.store), fresh.Exact(f.store), "wavelet Exact")
}

func TestBindDegradedRunBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	v1, v2 := shapePair(rng, 6, 19, 400)
	tmpl, err := NewPlan(v1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tmpl.Bind(v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPlan(v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := templateStore(rng, 400)
	cfg := storage.FaultConfig{ErrorRate: 0.3, Seed: 21}
	rb := NewRun(bound, penalty.SSE{}, storage.NewFaultStore(base, cfg))
	rf := NewRun(fresh, penalty.SSE{}, storage.NewFaultStore(base, cfg))
	ctx := context.Background()
	for !rb.Done() {
		_, errB := rb.StepBatchCtx(ctx, 5)
		_, errF := rf.StepBatchCtx(ctx, 5)
		if (errB == nil) != (errF == nil) {
			t.Fatalf("fault behavior diverged: %v vs %v", errB, errF)
		}
	}
	if !rf.Done() {
		t.Fatalf("fresh run not done when bound run is")
	}
	if rb.Degraded() != rf.Degraded() || rb.SkippedCount() != rf.SkippedCount() {
		t.Fatalf("degradation diverged: %v/%d vs %v/%d",
			rb.Degraded(), rb.SkippedCount(), rf.Degraded(), rf.SkippedCount())
	}
	if !rb.Degraded() {
		t.Fatalf("fixture did not degrade; raise the error rate")
	}
	assertBitIdentical(t, rb.Estimates(), rf.Estimates(), "degraded estimates")
	if math.Float64bits(rb.WorstCaseBound(10)) != math.Float64bits(rf.WorstCaseBound(10)) {
		t.Fatalf("degraded bounds diverge")
	}
	if math.Float64bits(rb.SkippedImportance()) != math.Float64bits(rf.SkippedImportance()) {
		t.Fatalf("skipped importance diverges")
	}
}

func TestBindCancelledRunBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	v1, v2 := shapePair(rng, 4, 31, 400)
	tmpl, err := NewPlan(v1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tmpl.Bind(v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewPlan(v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := templateStore(rng, 400)
	rb := NewRun(bound, penalty.SSE{}, store)
	rf := NewRun(fresh, penalty.SSE{}, store)
	ctx, cancel := context.WithCancel(context.Background())
	// Advance both part way, then cancel: the interrupted runs must agree
	// bit-for-bit on their partial state and stay resumable.
	half := len(bound.keys) / 2
	if _, err := rb.StepBatchCtx(ctx, half); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.StepBatchCtx(ctx, half); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := rb.StepBatchCtx(ctx, half); !errors.Is(err, context.Canceled) {
		t.Fatalf("bound run: want context.Canceled, got %v", err)
	}
	if _, err := rf.StepBatchCtx(ctx, half); !errors.Is(err, context.Canceled) {
		t.Fatalf("fresh run: want context.Canceled, got %v", err)
	}
	if rb.Retrieved() != rf.Retrieved() {
		t.Fatalf("cancelled runs retrieved %d vs %d", rb.Retrieved(), rf.Retrieved())
	}
	assertBitIdentical(t, rb.Estimates(), rf.Estimates(), "cancelled estimates")
	// Resume to completion on a fresh context: still identical, still exact.
	rb.RunToCompletion()
	rf.RunToCompletion()
	assertBitIdentical(t, rb.Estimates(), rf.Estimates(), "resumed estimates")
	// Progressive accumulation follows schedule order, Exact follows key
	// order, so completed-run values match Exact to rounding, not bits.
	assertClose(t, rb.Estimates(), fresh.Exact(store), 1e-9, "resumed vs exact")
}

func TestBindRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	v1, v2 := shapePair(rng, 3, 5, 100)
	tmpl, err := NewPlan(v1, nil)
	if err != nil {
		t.Fatal(err)
	}

	wrongCount := v2[:2]
	if _, err := tmpl.Bind(wrongCount, nil); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("query-count mismatch: got %v", err)
	}

	extra := cloneVectors(v2)
	extra[1][9999] = 1.5 // key outside the template shape
	if _, err := tmpl.Bind(extra, nil); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("extra-key mismatch: got %v", err)
	}

	moved := cloneVectors(v2)
	var anyKey int
	for k := range moved[0] {
		anyKey = k
		break
	}
	delete(moved[0], anyKey)
	moved[0][9998] = 2.0 // same count, different key set
	if _, err := tmpl.Bind(moved, nil); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("moved-key mismatch: got %v", err)
	}
}

func TestShapeFingerprintAgreesWithPlanShape(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	v1, v2 := shapePair(rng, 5, 11, 300)
	plan, err := NewPlan(v1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.ShapeOf(), ShapeFingerprint(v1); got != want {
		t.Fatalf("plan shape %s != vector shape %s", got, want)
	}
	// Same shape, different values: fingerprints agree.
	if ShapeFingerprint(v1) != ShapeFingerprint(v2) {
		t.Fatalf("re-weighted vectors changed the shape fingerprint")
	}
	// Different shape: fingerprints move.
	other := cloneVectors(v1)
	other[0][9999] = 1.0
	if ShapeFingerprint(other) == ShapeFingerprint(v1) {
		t.Fatalf("distinct shapes share a fingerprint")
	}
}

// cloneBatchScaled deep-copies a batch with every term coefficient scaled —
// identical ranges and powers, so the sparsity shape is preserved.
func cloneBatchScaled(b query.Batch, s float64) query.Batch {
	out := make(query.Batch, len(b))
	for i, q := range b {
		cq := *q
		cq.Terms = make([]query.Term, len(q.Terms))
		for j, t := range q.Terms {
			cq.Terms[j] = query.Term{Coeff: t.Coeff * s, Powers: append([]int(nil), t.Powers...)}
		}
		out[i] = &cq
	}
	return out
}

func cloneVectors(vs []sparse.Vector) []sparse.Vector {
	out := make([]sparse.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}
