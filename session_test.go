package repro

import (
	"errors"
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
	sess := db.NewSession()

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
	sess := db.NewSession()
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
	sess.ClearCache()
	if sess.CachedCoefficients() != 0 {
		t.Fatal("ClearCache failed")
	}
}

// TestSessionCountsItsOwnRetrievals: a session's counters are its own I/O.
// Retrievals made beside it through the database do not show up in them,
// while its misses reach the database's count like any other read.
func TestSessionCountsItsOwnRetrievals(t *testing.T) {
	db, plan := robustFixture(t)
	sess := db.NewSession()
	sess.Exact(plan)
	own := sess.Retrievals()
	if own != int64(plan.DistinctCoefficients()) {
		t.Fatalf("session retrievals %d, want %d", own, plan.DistinctCoefficients())
	}
	db.Exact(plan)
	if got := sess.Retrievals(); got != own {
		t.Fatalf("session retrievals %d after a database pass beside it, want its own %d", got, own)
	}
	if got := db.Retrievals(); got != 2*own {
		t.Fatalf("database retrievals %d after the session's pass and its own, want %d", got, 2*own)
	}
	// A repeat through the session is all hits: neither count moves.
	sess.Exact(plan)
	if sess.Retrievals() != own || sess.Hits() != own || db.Retrievals() != 2*own {
		t.Fatalf("after a repeat: session retrievals %d, hits %d, database %d; want %d, %d, %d",
			sess.Retrievals(), sess.Hits(), db.Retrievals(), own, own, 2*own)
	}
}

// TestSessionKeepsItsVersion: a database without MVCC is one version for
// good, so Insert is refused and a session cache can never outlive a write.
// Under MVCC a session opened before writes keeps answering its own version
// to the bit, and a session opened after them answers the new truth.
func TestSessionKeepsItsVersion(t *testing.T) {
	schema, err := NewSchema([]string{"x", "y"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 10000, 3)
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]int{3, 4}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert without MVCC = %v, want errors.Is ErrReadOnly", err)
	}
	batch, err := ParseBatch(schema, `COUNT() WHERE x <= 15 AND y <= 15`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableMVCC(MVCCConfig{}); err != nil {
		t.Fatal(err)
	}
	old := db.NewSession()
	before := old.Exact(plan)[0]
	if truth := batch.EvaluateDirect(dist)[0]; math.Abs(before-truth) > 1e-9*truth {
		t.Fatalf("before the writes: session %v, truth %v", before, truth)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert([]int{3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if got := old.Exact(plan)[0]; got != before {
		t.Fatalf("the session opened before the writes answers %v, its version's answer is %v", got, before)
	}
	want := before + 50
	for name, got := range map[string]float64{
		"a new session": db.NewSession().Exact(plan)[0],
		"the database":  db.Exact(plan)[0],
	} {
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("%s answers %v after 50 inserts, the truth is %v", name, got, want)
		}
	}
}
