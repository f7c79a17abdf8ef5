package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/storetest"
	"repro/internal/wavelet"
)

func TestInsertTupleMatchesBulkTransform(t *testing.T) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{16, 8})
	rng := rand.New(rand.NewSource(61))
	for _, f := range []*wavelet.Filter{wavelet.Haar, wavelet.Db4, wavelet.Db6} {
		dist := dataset.NewDistribution(schema)
		store := storetest.NewMap()
		for i := 0; i < 50; i++ {
			coords := []int{rng.Intn(16), rng.Intn(8)}
			dist.AddTuple(coords)
			if err := storetest.InsertTuple(store, f, schema.Sizes, coords); err != nil {
				t.Fatal(err)
			}
		}
		want, err := dist.Transform(f)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			if math.Abs(storage.Get(store, k)-w) > 1e-8*(1+math.Abs(w)) {
				t.Fatalf("%s: coefficient %d: incremental %g bulk %g", f.Name, k, storage.Get(store, k), w)
			}
		}
	}
}

func TestDeleteTupleInvertsInsert(t *testing.T) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{8, 8})
	store := storetest.NewMap()
	coords := []int{3, 5}
	if err := storetest.InsertTuple(store, wavelet.Db4, schema.Sizes, coords); err != nil {
		t.Fatal(err)
	}
	if err := storetest.DeleteTuple(store, wavelet.Db4, schema.Sizes, coords); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < schema.Cells(); k++ {
		if v := storage.Get(store, k); math.Abs(v) > 1e-12 {
			t.Fatalf("coefficient %d = %g after insert+delete", k, v)
		}
	}
}

func TestInsertTupleValidation(t *testing.T) {
	store := storetest.NewMap()
	if err := storetest.InsertTuple(store, wavelet.Haar, []int{8, 8}, []int{1}); err == nil {
		t.Error("dimensionality mismatch should fail")
	}
	if err := storetest.InsertTuple(store, wavelet.Haar, []int{8}, []int{9}); err == nil {
		t.Error("out-of-range coordinate should fail")
	}
	if err := storetest.InsertTuple(store, wavelet.Haar, []int{8}, []int{-1}); err == nil {
		t.Error("negative coordinate should fail")
	}
}

func TestInsertedTuplesAnswerQueriesExactly(t *testing.T) {
	// Queries over a store maintained purely by inserts must be exact.
	fxSchema := dataset.MustSchema([]string{"x", "y", "m"}, []int{8, 8, 8})
	store := storetest.NewMap()
	dist := dataset.NewDistribution(fxSchema)
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 200; i++ {
		coords := []int{rng.Intn(8), rng.Intn(8), rng.Intn(8)}
		dist.AddTuple(coords)
		if err := storetest.InsertTuple(store, wavelet.Db4, fxSchema.Sizes, coords); err != nil {
			t.Fatal(err)
		}
	}
	fx := planOverSchema(t, fxSchema)
	got := mustExact(fx, store)
	// Direct truth.
	want := fxBatchOverSchema(t, fxSchema).EvaluateDirect(dist)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("query %d: got %g want %g", i, got[i], want[i])
		}
	}
}

// fxBatchOverSchema builds a deterministic small SUM batch over a partition
// of the schema domain (kept separate from newFixture, which owns its data).
func fxBatchOverSchema(t *testing.T, schema *dataset.Schema) query.Batch {
	t.Helper()
	ranges, err := query.RandomPartition(schema, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "m")
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func planOverSchema(t *testing.T, schema *dataset.Schema) *Plan {
	t.Helper()
	plan, err := NewWaveletPlan(fxBatchOverSchema(t, schema), wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func BenchmarkInsertTuple3D(b *testing.B) {
	dims := []int{64, 64, 32}
	store := storetest.NewMap()
	rng := rand.New(rand.NewSource(71))
	coordsList := make([][]int, 64)
	for i := range coordsList {
		coordsList[i] = []int{rng.Intn(64), rng.Intn(64), rng.Intn(32)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := storetest.InsertTuple(store, wavelet.Db4, dims, coordsList[i%len(coordsList)]); err != nil {
			b.Fatal(err)
		}
	}
}
