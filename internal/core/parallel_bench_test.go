package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// benchPlanFixture is a 128-query 2-D workload — large enough that plan
// construction and exact evaluation have real work to parallelize.
type benchPlanFixture struct {
	batch query.Batch
	plan  *Plan
	store *storage.SparseStore
	array *storage.ArrayStore
}

func newBenchPlanFixture(b *testing.B) *benchPlanFixture {
	b.Helper()
	schema := dataset.MustSchema([]string{"x", "y"}, []int{256, 128})
	dist := dataset.Uniform(schema, 20000, 9)
	ranges, err := query.RandomPartition(schema, 128, 17)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "y")
	if err != nil {
		b.Fatal(err)
	}
	hat, err := dist.Transform(wavelet.Db4)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := waveletPlanOn(batch, wavelet.Db4, 1)
	if err != nil {
		b.Fatal(err)
	}
	return &benchPlanFixture{
		batch: batch,
		plan:  plan,
		store: storage.NewSparseStoreFromDense(hat),
		array: storage.NewArrayStore(hat),
	}
}

// BenchmarkPlanParallel measures master-list construction (query rewriting +
// sharded merge + key sort) across worker counts. On a multi-core host the
// rewrite phase scales with workers; workers=1 is the sequential baseline.
func BenchmarkPlanParallel(b *testing.B) {
	f := newBenchPlanFixture(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := waveletPlanOn(f.batch, wavelet.Db4, workers)
				if err != nil {
					b.Fatal(err)
				}
				if p.DistinctCoefficients() != f.plan.DistinctCoefficients() {
					b.Fatal("plan mismatch")
				}
			}
		})
	}
}

// BenchmarkExactParallel measures exact batch evaluation across worker counts
// against the hash store, which the workers fetch from concurrently, with
// sequential Exact as the baseline. Results are bit-identical at every worker count.
func BenchmarkExactParallel(b *testing.B) {
	f := newBenchPlanFixture(b)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustExactOn(f.plan, f.store, 1)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustExactOn(f.plan, f.store, workers)
			}
		})
	}
}

// BenchmarkStepBatch compares one-at-a-time progressive stepping against
// batched stepping, which amortizes the store round-trip (one counter update
// per batch instead of per key).
func BenchmarkStepBatch(b *testing.B) {
	f := newBenchPlanFixture(b)
	b.Run("step=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := NewRun(f.plan, penalty.SSE{}, f.store)
			drainRun(run)
		}
	})
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := NewRun(f.plan, penalty.SSE{}, f.store)
				for stepBatch(run, size) > 0 {
				}
			}
		})
	}
}
