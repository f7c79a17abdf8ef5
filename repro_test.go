package repro

import (
	"math"
	"testing"
)

func facadeFixture(t *testing.T) (*Schema, *Distribution, *Database, Batch, []float64) {
	t.Helper()
	schema, err := NewSchema([]string{"x", "y", "m"}, []int{16, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 3000, 11)
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := RandomPartition(schema, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SumBatch(schema, ranges, "m")
	if err != nil {
		t.Fatal(err)
	}
	truth := batch.EvaluateDirect(dist)
	return schema, dist, db, batch, truth
}

func TestDatabaseExactEvaluation(t *testing.T) {
	_, _, db, batch, truth := facadeFixture(t)
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := db.Exact(plan)
	for i := range got {
		if math.Abs(got[i]-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("query %d: got %g want %g", i, got[i], truth[i])
		}
	}
	if db.Retrievals() != int64(plan.DistinctCoefficients()) {
		t.Fatalf("retrievals %d != distinct coefficients %d",
			db.Retrievals(), plan.DistinctCoefficients())
	}
	db.ResetStats()
	if db.Retrievals() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestDatabaseProgressiveRun(t *testing.T) {
	_, _, db, batch, truth := facadeFixture(t)
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	run := db.NewRun(plan, SSE())
	run.StepN(32)
	if run.Retrieved() != 32 {
		t.Fatalf("Retrieved = %d", run.Retrieved())
	}
	run.RunToCompletion()
	for i, v := range run.Estimates() {
		if math.Abs(v-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("query %d: got %g want %g", i, v, truth[i])
		}
	}
}

func TestDatabaseArrayStoreOption(t *testing.T) {
	schema, err := NewSchema([]string{"x", "y"}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 500, 3)
	db, err := NewDatabase(dist, Haar)
	if err != nil {
		t.Fatal(err)
	}
	batch := CountBatch(schema, []Range{FullDomain(schema)})
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := db.Exact(plan)
	if math.Abs(got[0]-500) > 1e-9 {
		t.Fatalf("full-domain count %g", got[0])
	}
}

func TestNewDatabaseValidation(t *testing.T) {
	if _, err := NewDatabase(nil, Db4); err == nil {
		t.Error("nil distribution should fail")
	}
	schema, _ := NewSchema([]string{"x"}, []int{8})
	if _, err := NewDatabase(NewDistribution(schema), nil); err == nil {
		t.Error("nil filter should fail")
	}
	if _, err := NewEmptyDatabase(nil, Db4); err == nil {
		t.Error("nil schema should fail")
	}
}

func TestPlanRejectsForeignSchema(t *testing.T) {
	_, _, db, _, _ := facadeFixture(t)
	other, err := NewSchema([]string{"z"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	batch := CountBatch(other, []Range{FullDomain(other)})
	if _, err := db.Plan(batch); err == nil {
		t.Error("foreign schema should be rejected")
	}
}

func TestIncrementalInsertMatchesBulkLoad(t *testing.T) {
	schema, err := NewSchema([]string{"x", "y"}, []int{16, 8})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 300, 9)
	bulk, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewEmptyDatabase(schema, Db4)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]int, 2)
	for x := 0; x < 16; x++ {
		for y := 0; y < 8; y++ {
			coords[0], coords[1] = x, y
			for k := 0; k < int(dist.At(coords)); k++ {
				if err := inc.Insert(coords); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	r, err := NewRange(schema, []int{2, 1}, []int{13, 6})
	if err != nil {
		t.Fatal(err)
	}
	q, err := SumQuery(schema, r, "x")
	if err != nil {
		t.Fatal(err)
	}
	batch := Batch{q}
	pBulk, err := bulk.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	pInc, err := inc.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	a := bulk.Exact(pBulk)[0]
	b := inc.Exact(pInc)[0]
	if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
		t.Fatalf("bulk %g vs incremental %g", a, b)
	}
}

func TestDeleteUndoesInsert(t *testing.T) {
	schema, err := NewSchema([]string{"x"}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewEmptyDatabase(schema, Db4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]int{5}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]int{5}); err != nil {
		t.Fatal(err)
	}
	batch := CountBatch(schema, []Range{FullDomain(schema)})
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Exact(plan)[0]; math.Abs(got) > 1e-9 {
		t.Fatalf("count after insert+delete = %g", got)
	}
}

func TestRoundRobinBaselineThroughFacade(t *testing.T) {
	_, _, db, batch, truth := facadeFixture(t)
	rr, err := db.NewRoundRobinRun(batch)
	if err != nil {
		t.Fatal(err)
	}
	rr.RunToCompletion()
	for i, v := range rr.Estimates() {
		if math.Abs(v-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("query %d: got %g want %g", i, v, truth[i])
		}
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Retrieved() <= plan.DistinctCoefficients() {
		t.Fatalf("round robin should retrieve more than shared plan: %d vs %d",
			rr.Retrieved(), plan.DistinctCoefficients())
	}
}

func TestPenaltyConstructors(t *testing.T) {
	if _, err := WeightedSSE([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := CursoredSSE(8, []int{1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := LaplacianSSE(8); err != nil {
		t.Fatal(err)
	}
	if _, err := GridLaplacianSSE([]int{2, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := FirstDifferenceSSE(8); err != nil {
		t.Fatal(err)
	}
	if _, err := LpNorm(1.5); err != nil {
		t.Fatal(err)
	}
	if LinfNorm().Name() != "Linf" {
		t.Fatal("LinfNorm wrong")
	}
	q, err := QuadraticPenalty([][]float64{{1, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombinePenalties([]float64{1, 1}, []Penalty{SSE(), q}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterHelpers(t *testing.T) {
	f, err := FilterForDegree(1)
	if err != nil || f.Name != "Db4" {
		t.Fatalf("FilterForDegree(1) = %v, %v", f, err)
	}
	g, err := FilterByName("Db6")
	if err != nil || g.Len() != 6 {
		t.Fatalf("FilterByName = %v, %v", g, err)
	}
}

func TestTemperatureFacade(t *testing.T) {
	cfg := DefaultTemperatureConfig()
	cfg.Records = 2000
	cfg.LatBins, cfg.LonBins, cfg.AltBins, cfg.TimeBins, cfg.TempBins = 8, 8, 4, 8, 8
	dist, err := Temperature(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dist.TupleCount != 2000 {
		t.Fatalf("TupleCount = %d", dist.TupleCount)
	}
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	if db.NonzeroCoefficients() == 0 {
		t.Fatal("no coefficients stored")
	}
}

func TestDataGenerators(t *testing.T) {
	schema, _ := NewSchema([]string{"x", "y"}, []int{16, 16})
	if _, err := ZipfData(schema, 100, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ClusteredData(schema, 100, 2, 0.1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMomentSetFacade(t *testing.T) {
	schema, _ := NewSchema([]string{"a", "b"}, []int{16, 16})
	dist, err := ClusteredData(schema, 2000, 2, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(dist, Db6)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := GridPartition(schema, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMomentSet(schema, ranges, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(m.Batch)
	if err != nil {
		t.Fatal(err)
	}
	results := db.Exact(plan)
	exact := m.Batch.EvaluateDirect(dist)
	for ri := range ranges {
		got, ok1 := m.Variance(results, ri, "a", 0.5)
		want, ok2 := m.Variance(exact, ri, "a", 0.5)
		if ok1 != ok2 || (ok1 && math.Abs(got-want) > 1e-6*(1+want)) {
			t.Fatalf("range %d variance %g want %g", ri, got, want)
		}
	}
}
