package repro

import (
	"bytes"
	"context"
	"math"
	"testing"
)

func TestNewSparseDatabaseHugeDomain(t *testing.T) {
	// A domain whose dense array would be 2+ GB, loaded sparsely with Haar
	// and queried exactly.
	schema, err := NewSchema(
		[]string{"a", "b", "c", "d"}, []int{256, 256, 64, 64})
	if err != nil {
		t.Fatal(err)
	} // 268M cells
	sd := NewSparseDistribution(schema)
	coordsList := [][]int{
		{10, 20, 5, 5}, {10, 20, 5, 5}, {200, 100, 60, 3}, {255, 255, 63, 63},
	}
	for _, c := range coordsList {
		sd.AddTuple(c)
	}
	db, err := NewSparseDatabase(sd, Haar)
	if err != nil {
		t.Fatal(err)
	}
	if db.TupleCount() != 4 {
		t.Fatalf("TupleCount = %d", db.TupleCount())
	}
	r, err := NewRange(schema, []int{0, 0, 0, 0}, []int{127, 255, 63, 63})
	if err != nil {
		t.Fatal(err)
	}
	batch := CountBatch(schema, []Range{r, FullDomain(schema)})
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := db.Exact(plan)
	if math.Abs(got[0]-2) > 1e-6 || math.Abs(got[1]-4) > 1e-6 {
		t.Fatalf("counts = %v, want [2, 4]", got)
	}
}

func TestNewSparseDatabaseMatchesDense(t *testing.T) {
	cfg := DefaultTemperatureConfig()
	cfg.Records = 3000
	cfg.LatBins, cfg.LonBins, cfg.AltBins, cfg.TimeBins, cfg.TempBins = 8, 8, 4, 8, 8
	dense, err := Temperature(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := TemperatureSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dbDense, err := NewDatabase(dense, Db4)
	if err != nil {
		t.Fatal(err)
	}
	dbSparse, err := NewSparseDatabase(sp, Db4)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := RandomPartition(dbDense.Schema(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SumBatch(dbDense.Schema(), ranges, "temperature")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := dbDense.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := dbSparse.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	a := dbDense.Exact(p1)
	b := dbSparse.Exact(p2)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6*(1+math.Abs(a[i])) {
			t.Fatalf("query %d: dense %g sparse %g", i, a[i], b[i])
		}
	}
}

func TestNewSparseDatabaseValidation(t *testing.T) {
	if _, err := NewSparseDatabase(nil, Haar); err == nil {
		t.Error("nil distribution should fail")
	}
	schema, _ := NewSchema([]string{"x"}, []int{8})
	if _, err := NewSparseDatabase(NewSparseDistribution(schema), nil); err == nil {
		t.Error("nil filter should fail")
	}
}

// TestSparseMassIsDeterministic: NewSparseDatabase fills its store and sums
// K in ascending key order, as LoadDatabase does, so every build of one
// distribution and its Save → LoadDatabase copy carry the same K to the bit
// and report the same Theorem-1 bounds. K used to be summed in the walk
// order of a table filled in map iteration order.
func TestSparseMassIsDeterministic(t *testing.T) {
	cfg := DefaultTemperatureConfig()
	cfg.Records = 3000
	cfg.LatBins, cfg.LonBins, cfg.AltBins, cfg.TimeBins, cfg.TempBins = 8, 8, 4, 8, 8
	sp, err := TemperatureSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Database, float64) {
		t.Helper()
		db, err := NewSparseDatabase(sp, Db4)
		if err != nil {
			t.Fatal(err)
		}
		mass, err := db.CoefficientMass()
		if err != nil {
			t.Fatal(err)
		}
		return db, mass
	}
	db, mass := build()
	for i := 0; i < 10; i++ {
		if _, m := build(); m != mass {
			t.Fatalf("build %d: mass %v, the first build's %v", i+1, m, mass)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lmass, err := loaded.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	if lmass != mass {
		t.Fatalf("saved and loaded: mass %v, built %v", lmass, mass)
	}

	ranges, err := RandomPartition(db.Schema(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SumBatch(db.Schema(), ranges, "temperature")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	built, load := db.NewRun(plan, SSE()), loaded.NewRun(plan, SSE())
	for _, run := range []*Run{built, load} {
		if _, err := run.StepBatchCtx(ctx, 200); err != nil {
			t.Fatal(err)
		}
	}
	for q := range batch {
		if b, l := built.QueryErrorBound(q, mass), load.QueryErrorBound(q, lmass); b != l {
			t.Fatalf("query %d: bound %v built, %v loaded", q, b, l)
		}
	}
}
