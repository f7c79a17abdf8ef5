package repro

import (
	"math"
	"testing"
)

func TestSessionDrillDownReusesRetrievals(t *testing.T) {
	schema, err := NewSchema([]string{"x", "y", "m"}, []int{16, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 3000, 11)
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.NewSession(UnboundedCache)
	if err != nil {
		t.Fatal(err)
	}

	// Batch 1: coarse synopsis — a 2×2 grid of SUM(m) queries.
	coarseRanges, err := GridPartition(schema, []int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := SumBatch(schema, coarseRanges, "m")
	if err != nil {
		t.Fatal(err)
	}
	coarsePlan, err := sess.Plan(coarse)
	if err != nil {
		t.Fatal(err)
	}
	got := sess.Exact(coarsePlan)
	truth := coarse.EvaluateDirect(dist)
	for i := range got {
		if math.Abs(got[i]-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("coarse query %d wrong", i)
		}
	}
	afterCoarse := sess.Retrievals()
	if afterCoarse != int64(coarsePlan.DistinctCoefficients()) {
		t.Fatalf("coarse retrievals %d != distinct %d", afterCoarse, coarsePlan.DistinctCoefficients())
	}

	// Batch 2: drill into the first quadrant with a finer grid. Many
	// coefficients overlap the coarse batch, so the session must pay fewer
	// misses than a fresh evaluation would.
	fineRanges, err := GridPartition(schema, []int{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	var drill []Range
	for _, r := range fineRanges {
		if r.Hi[0] < 8 && r.Hi[1] < 8 {
			drill = append(drill, r)
		}
	}
	fine, err := SumBatch(schema, drill, "m")
	if err != nil {
		t.Fatal(err)
	}
	finePlan, err := sess.Plan(fine)
	if err != nil {
		t.Fatal(err)
	}
	gotFine := sess.Exact(finePlan)
	truthFine := fine.EvaluateDirect(dist)
	for i := range gotFine {
		if math.Abs(gotFine[i]-truthFine[i]) > 1e-6*(1+math.Abs(truthFine[i])) {
			t.Fatalf("drill query %d wrong", i)
		}
	}
	fineMisses := sess.Retrievals() - afterCoarse
	if fineMisses >= int64(finePlan.DistinctCoefficients()) {
		t.Fatalf("drill-down paid %d misses for %d coefficients; expected reuse",
			fineMisses, finePlan.DistinctCoefficients())
	}
	if sess.Hits() == 0 {
		t.Fatal("session recorded no cache hits")
	}
	if sess.CachedCoefficients() == 0 {
		t.Fatal("session cache empty")
	}
}

func TestSessionProgressiveRun(t *testing.T) {
	schema, err := NewSchema([]string{"x", "m"}, []int{32, 8})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 1000, 5)
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.NewSession(UnboundedCache)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := GridPartition(schema, []int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SumBatch(schema, ranges, "m")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sess.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	run := sess.NewRun(plan, SSE())
	drainRun(run)
	truth := batch.EvaluateDirect(dist)
	for i, v := range run.Estimates() {
		if math.Abs(v-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("query %d: %g want %g", i, v, truth[i])
		}
	}
	// Re-running the same plan in the same session is free.
	before := sess.Retrievals()
	run2 := sess.NewRun(plan, SSE())
	drainRun(run2)
	if sess.Retrievals() != before {
		t.Fatalf("rerun paid %d extra misses", sess.Retrievals()-before)
	}
	sess.ResetStats()
	if sess.Retrievals() != 0 {
		t.Fatal("ResetStats failed")
	}
	sess.ClearCache()
	if sess.CachedCoefficients() != 0 {
		t.Fatal("ClearCache failed")
	}
}

// TestSessionCountsItsOwnRetrievals: a session's counters are its own I/O.
// Retrievals made beside it through the database do not show up in them,
// and resetting them leaves the database's counter where it was.
func TestSessionCountsItsOwnRetrievals(t *testing.T) {
	db, plan := robustFixture(t)
	sess, err := db.NewSession(UnboundedCache)
	if err != nil {
		t.Fatal(err)
	}
	sess.Exact(plan)
	own := sess.Retrievals()
	if own != int64(plan.DistinctCoefficients()) {
		t.Fatalf("session retrievals %d, want %d", own, plan.DistinctCoefficients())
	}
	db.Exact(plan)
	if got := sess.Retrievals(); got != own {
		t.Fatalf("session retrievals %d after a database pass beside it, want its own %d", got, own)
	}
	dbCount := db.Retrievals()
	sess.ResetStats()
	if sess.Retrievals() != 0 || sess.Hits() != 0 {
		t.Fatalf("session ResetStats left retrievals %d, hits %d", sess.Retrievals(), sess.Hits())
	}
	if db.Retrievals() != dbCount {
		t.Fatalf("session ResetStats moved the database's counter %d → %d", dbCount, db.Retrievals())
	}
}

func TestSessionValidation(t *testing.T) {
	schema, _ := NewSchema([]string{"x"}, []int{8})
	db, err := NewEmptyDatabase(schema, Haar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewSession(-1); err == nil {
		t.Error("negative capacity should fail")
	}
}
