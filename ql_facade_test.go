package repro

import (
	"math"
	"testing"
)

func TestParseQueryThroughFacade(t *testing.T) {
	schema, err := NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dist := NewDistribution(schema)
	dist.AddTuple([]int{10, 20})
	dist.AddTuple([]int{12, 25})
	dist.AddTuple([]int{30, 5})
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ParseBatch(schema, `
		COUNT() WHERE age <= 15;
		SUM(salary) WHERE age <= 15
	`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := db.Exact(plan)
	if math.Abs(got[0]-2) > 1e-9 || math.Abs(got[1]-45) > 1e-6 {
		t.Fatalf("results = %v, want [2, 45]", got)
	}
	if _, err := ParseQuery(schema, "SUM(bogus)"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestSobolevFacade(t *testing.T) {
	p, err := Sobolev(8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Homogeneity() != 2 {
		t.Fatal("Sobolev homogeneity wrong")
	}
	if _, err := Sobolev(8, -1); err == nil {
		t.Error("negative lambda should fail")
	}
}

func TestCoefficientMassAndWorstCaseBound(t *testing.T) {
	schema, err := NewSchema([]string{"x"}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 200, 3)
	db, err := NewDatabase(dist, Haar)
	if err != nil {
		t.Fatal(err)
	}
	mass, err := db.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	if mass <= 0 {
		t.Fatalf("CoefficientMass = %g", mass)
	}
	ranges, err := GridPartition(schema, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	batch := CountBatch(schema, ranges)
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	run := db.NewRun(plan, SSE())
	stepN(run, 2)
	bound := run.WorstCaseBound(mass)
	if bound <= 0 {
		t.Fatalf("bound = %g mid-run", bound)
	}
	// The bound must dominate the actual SSE of the current estimate.
	truth := batch.EvaluateDirect(dist)
	var sse float64
	for i, v := range run.Estimates() {
		e := v - truth[i]
		sse += e * e
	}
	if sse > bound+1e-9 {
		t.Fatalf("actual SSE %g exceeds worst-case bound %g", sse, bound)
	}
	drainRun(run)
	if run.WorstCaseBound(mass) != 0 {
		t.Fatal("bound should vanish at completion")
	}
}

func TestFormatFacadeRoundTrip(t *testing.T) {
	schema, err := NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ParseBatch(schema, "SUM(salary) WHERE age BETWEEN 3 AND 9; COUNT()")
	if err != nil {
		t.Fatal(err)
	}
	text, err := FormatBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBatch(schema, text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Range.String() != batch[0].Range.String() {
		t.Fatalf("round trip failed: %q", text)
	}
	single, err := FormatQuery(batch[1])
	if err != nil || single != "COUNT()" {
		t.Fatalf("FormatQuery = %q, %v", single, err)
	}
}
