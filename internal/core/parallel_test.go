package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// planBatch builds a SUM batch over a random partition of the schema.
func planBatch(t *testing.T, schema *dataset.Schema, numRanges int, attr string) query.Batch {
	t.Helper()
	ranges, err := query.RandomPartition(schema, numRanges, 11)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, attr)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

// assertPlansIdentical fails unless the two plans' CSR arrays are
// element-for-element identical: labels, totals, keys, offsets, query
// indices and bit-identical coefficients.
func assertPlansIdentical(t *testing.T, a, b *Plan, ctx string) {
	t.Helper()
	if len(a.Labels) != len(b.Labels) {
		t.Fatalf("%s: %d vs %d labels", ctx, len(a.Labels), len(b.Labels))
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("%s: label %d %q vs %q", ctx, i, a.Labels[i], b.Labels[i])
		}
	}
	if a.totalQueryCoefficients != b.totalQueryCoefficients {
		t.Fatalf("%s: totals %d vs %d", ctx, a.totalQueryCoefficients, b.totalQueryCoefficients)
	}
	if len(a.keys) != len(b.keys) {
		t.Fatalf("%s: %d vs %d entries", ctx, len(a.keys), len(b.keys))
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] {
			t.Fatalf("%s: entry %d key %d vs %d", ctx, i, a.keys[i], b.keys[i])
		}
		if a.offsets[i+1] != b.offsets[i+1] {
			t.Fatalf("%s: entry %d offset %d vs %d", ctx, i, a.offsets[i+1], b.offsets[i+1])
		}
	}
	for k := range a.queryIdx {
		if a.queryIdx[k] != b.queryIdx[k] {
			t.Fatalf("%s: ref %d query %d vs %d", ctx, k, a.queryIdx[k], b.queryIdx[k])
		}
		if a.coeffs[k] != b.coeffs[k] {
			t.Fatalf("%s: ref %d coeff %g vs %g", ctx, k, a.coeffs[k], b.coeffs[k])
		}
	}
}

// assertBitIdentical fails unless the two estimate vectors match exactly
// (==, not within tolerance).
func assertBitIdentical(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: estimate %d = %v, want bit-identical %v", ctx, i, got[i], want[i])
		}
	}
}

// TestParallelPlanDeterminism asserts that plan construction produces
// entry-for-entry identical plans at every worker count, and that
// Exact/ExactParallel/StepBatch-to-completion produce bit-identical results,
// for 1-D and 2-D batches.
func TestParallelPlanDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		schema *dataset.Schema
		attr   string
		ranges int
	}{
		{"1D", dataset.MustSchema([]string{"x"}, []int{256}), "x", 48},
		{"2D", dataset.MustSchema([]string{"x", "y"}, []int{64, 32}), "y", 64},
	}
	workerCounts := []int{1, 2, 8}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dist := dataset.Uniform(tc.schema, 3000, 5)
			batch := planBatch(t, tc.schema, tc.ranges, tc.attr)
			hat, err := dist.Transform(wavelet.Db4)
			if err != nil {
				t.Fatal(err)
			}
			store := storage.NewHashStoreFromDense(hat, 0)

			base, err := NewWaveletPlanParallel(batch, wavelet.Db4, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts[1:] {
				p, err := NewWaveletPlanParallel(batch, wavelet.Db4, w)
				if err != nil {
					t.Fatal(err)
				}
				assertPlansIdentical(t, base, p, tc.name)
			}

			seq := base.Exact(store)
			for _, w := range workerCounts {
				got := base.ExactParallel(store, w)
				assertBitIdentical(t, got, seq, tc.name+"/ExactParallel")
			}

			// StepBatch to completion, mixed batch sizes, matches Step-by-Step.
			runA := NewRun(base, penalty.SSE{}, store)
			runA.RunToCompletion()
			for _, bsize := range []int{1, 3, 7, 64} {
				runB := NewRun(base, penalty.SSE{}, store)
				for runB.StepBatch(bsize) > 0 {
				}
				if !runB.Done() {
					t.Fatalf("%s: StepBatch(%d) run not done", tc.name, bsize)
				}
				// Note runA (Step-by-step) is the sequential equivalent of
				// StepBatch; Exact accumulates in key order rather than
				// importance order so it matches only within rounding.
				assertBitIdentical(t, runB.Estimates(), runA.Estimates(), tc.name+"/StepBatch")
				if runB.Retrieved() != base.DistinctCoefficients() {
					t.Fatalf("%s: StepBatch retrieved %d, want %d", tc.name, runB.Retrieved(), base.DistinctCoefficients())
				}
			}
		})
	}
}

// TestStepBatchPrefixIdentical asserts that a partially advanced batched run
// matches the same number of single steps exactly, including retrieval
// counters and remaining importance.
func TestStepBatchPrefixIdentical(t *testing.T) {
	f := newFixture(t, 24)
	runA := NewRun(f.plan, penalty.SSE{}, f.store)
	runB := NewRun(f.plan, penalty.SSE{}, f.store)
	runA.StepN(37)
	if got := runB.StepBatch(37); got != 37 {
		t.Fatalf("StepBatch(37) = %d", got)
	}
	assertBitIdentical(t, runB.Estimates(), runA.Estimates(), "prefix")
	if runA.Retrieved() != runB.Retrieved() {
		t.Fatalf("retrieved %d vs %d", runA.Retrieved(), runB.Retrieved())
	}
	if runA.RemainingImportance() != runB.RemainingImportance() {
		t.Fatalf("remaining importance %v vs %v", runA.RemainingImportance(), runB.RemainingImportance())
	}
	if runA.NextImportance() != runB.NextImportance() {
		t.Fatalf("next importance %v vs %v", runA.NextImportance(), runB.NextImportance())
	}
}

// TestNewPlanParallelDeterminism covers the vector (non-wavelet) entry point
// across worker counts.
func TestNewPlanParallelDeterminism(t *testing.T) {
	f := newFixture(t, 16)
	vectors := make([]sparse.Vector, len(f.batch))
	for i, q := range f.batch {
		v, err := q.Coefficients(wavelet.Db4)
		if err != nil {
			t.Fatal(err)
		}
		vectors[i] = v
	}
	base, err := NewPlanParallel(vectors, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		p, err := NewPlanParallel(vectors, nil, w)
		if err != nil {
			t.Fatal(err)
		}
		assertPlansIdentical(t, base, p, "vectors")
	}
}

// TestExactParallelSharded exercises the concurrent fetch path (chunked
// GetBatch against a Concurrent store) for bit-identical results.
func TestExactParallelSharded(t *testing.T) {
	f := newFixture(t, 32)
	shared := newFixture(t, 32).store // the same coefficients, not yet read
	seq := f.plan.Exact(f.store)
	for _, w := range []int{1, 2, 8} {
		got := f.plan.ExactParallel(shared, w)
		assertBitIdentical(t, got, seq, "shared")
	}
	// Retrieval accounting: 3 parallel passes + nothing else.
	if want := int64(3 * f.plan.DistinctCoefficients()); shared.Retrievals() != want {
		t.Fatalf("shared retrievals = %d, want %d", shared.Retrievals(), want)
	}
}
