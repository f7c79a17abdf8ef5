package linstrat

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

func testDist(t *testing.T) (*dataset.Schema, *dataset.Distribution) {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y", "z"}, []int{8, 16, 4})
	return schema, dataset.Uniform(schema, 2000, 21)
}

func strategies() []Strategy {
	return []Strategy{Wavelet{Filter: wavelet.Haar}, Wavelet{Filter: wavelet.Db4}, PrefixSum{}, Identity{}}
}

// Every strategy must satisfy answer = ⟨rewritten query, stored array⟩ for
// COUNT queries on random ranges.
func TestStrategiesAgreeOnCounts(t *testing.T) {
	schema, dist := testDist(t)
	rng := rand.New(rand.NewSource(31))
	for _, s := range strategies() {
		stored, err := s.Precompute(dist)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for trial := 0; trial < 20; trial++ {
			lo := make([]int, 3)
			hi := make([]int, 3)
			for i, n := range schema.Sizes {
				lo[i] = rng.Intn(n)
				hi[i] = lo[i] + rng.Intn(n-lo[i])
			}
			r, err := query.NewRange(schema, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			q := query.Count(schema, r)
			vec, err := s.RewriteQuery(q)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			got := vec.DotDense(stored)
			want := q.EvaluateDirect(dist)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("%s %s: got %g want %g", s.Name(), r, got, want)
			}
		}
	}
}

func TestPrefixSumCornerCount(t *testing.T) {
	schema, dist := testDist(t)
	stored, err := PrefixSum{}.Precompute(dist)
	if err != nil {
		t.Fatal(err)
	}
	// Interior range: exactly 2^3 corners.
	r, err := query.NewRange(schema, []int{2, 3, 1}, []int{5, 9, 2})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := PrefixSum{}.RewriteQuery(query.Count(schema, r))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 8 {
		t.Fatalf("interior range should need 8 corners, got %d", len(vec))
	}
	// Range anchored at the origin: a single corner.
	r0, err := query.NewRange(schema, []int{0, 0, 0}, []int{5, 9, 2})
	if err != nil {
		t.Fatal(err)
	}
	vec0, err := PrefixSum{}.RewriteQuery(query.Count(schema, r0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec0) != 1 {
		t.Fatalf("origin-anchored range should need 1 corner, got %d", len(vec0))
	}
	// The last cell of the prefix array holds the total count.
	if got := stored[len(stored)-1]; got != float64(dist.TupleCount) {
		t.Fatalf("total prefix %g != tuple count %d", got, dist.TupleCount)
	}
}

func TestPrefixSumRejectsPositiveDegree(t *testing.T) {
	schema, _ := testDist(t)
	q, err := query.Sum(schema, query.FullDomain(schema), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (PrefixSum{}).RewriteQuery(q); err == nil {
		t.Error("degree-1 query should be rejected")
	}
}

func TestIdentityRewritingIsTheQueryVector(t *testing.T) {
	schema, _ := testDist(t)
	r, err := query.NewRange(schema, []int{1, 2, 0}, []int{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Sum(schema, r, "y")
	if err != nil {
		t.Fatal(err)
	}
	vec, err := Identity{}.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Volume is 2·2·2 = 8 cells; cells with y-weight 0 are dropped — here y
	// ranges over {2,3} so none drop.
	if len(vec) != 8 {
		t.Fatalf("identity rewriting has %d cells, want 8", len(vec))
	}
	coords := []int{1, 2, 0}
	key := wavelet.FlatIndex(coords, schema.Sizes)
	if vec[key] != 2 {
		t.Fatalf("weight at %v = %g, want 2", coords, vec[key])
	}
}

func TestIdentitySumMatchesDirect(t *testing.T) {
	schema, dist := testDist(t)
	stored, err := Identity{}.Precompute(dist)
	if err != nil {
		t.Fatal(err)
	}
	r, err := query.NewRange(schema, []int{0, 4, 1}, []int{7, 11, 3})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Sum(schema, r, "x")
	if err != nil {
		t.Fatal(err)
	}
	vec, err := Identity{}.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	got := vec.DotDense(stored)
	want := q.EvaluateDirect(dist)
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("got %g want %g", got, want)
	}
}

func TestBuildPlanRunsEngineOnPrefixSums(t *testing.T) {
	// The Section 1.2 claim, executed: Batch-Biggest-B over the prefix-sum
	// strategy produces exact COUNT results and shares corner retrievals
	// across a partition batch.
	schema, dist := testDist(t)
	ranges, err := query.RandomPartition(schema, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	batch := query.CountBatch(schema, ranges)
	plan, err := BuildPlan(PrefixSum{}, batch)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := PrefixSum{}.Precompute(dist)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewArrayStore(stored)
	got, err := plan.Exact(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	want := batch.EvaluateDirect(dist)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("query %d: got %g want %g", i, got[i], want[i])
		}
	}
	// Partition cells share corners: distinct < total.
	if plan.DistinctCoefficients() >= plan.TotalQueryCoefficients() {
		t.Fatalf("corner sharing expected: distinct %d, total %d",
			plan.DistinctCoefficients(), plan.TotalQueryCoefficients())
	}
}

func TestBuildPlanPropagatesRewriteErrors(t *testing.T) {
	schema, _ := testDist(t)
	q, err := query.Sum(schema, query.FullDomain(schema), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(PrefixSum{}, query.Batch{q}); err == nil {
		t.Error("prefix-sum plan over degree-1 batch should fail")
	}
	if _, err := BuildPlan(Identity{}, query.Batch{}); err == nil {
		t.Error("empty batch should fail")
	}
}

func TestStrategyNames(t *testing.T) {
	want := map[string]bool{"wavelet-Haar": true, "wavelet-Db4": true, "prefix-sum": true, "identity": true}
	for _, s := range strategies() {
		if !want[s.Name()] {
			t.Errorf("unexpected name %q", s.Name())
		}
	}
}

func BenchmarkPrefixSumPrecompute(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y", "z"}, []int{64, 64, 16})
	dist := dataset.Uniform(schema, 50000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (PrefixSum{}).Precompute(dist); err != nil {
			b.Fatal(err)
		}
	}
}
