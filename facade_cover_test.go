package repro

import (
	"errors"
	"math"
	"testing"
)

func TestQueryConstructorFacades(t *testing.T) {
	schema, err := NewSchema([]string{"a", "b"}, []int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	dist := NewDistribution(schema)
	dist.AddTuple([]int{2, 3})
	dist.AddTuple([]int{4, 5})
	r := FullDomain(schema)

	count := CountQuery(schema, r)
	if got := count.EvaluateDirect(dist); got != 2 {
		t.Fatalf("CountQuery = %g", got)
	}
	sq, err := SumSquaresQuery(schema, r, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := sq.EvaluateDirect(dist); got != 4+16 {
		t.Fatalf("SumSquaresQuery = %g", got)
	}
	sp, err := SumProductQuery(schema, r, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.EvaluateDirect(dist); got != 2*3+4*5 {
		t.Fatalf("SumProductQuery = %g", got)
	}
	if _, err := SumSquaresQuery(schema, r, "zzz"); err == nil {
		t.Error("unknown attr should fail")
	}
	if _, err := SumProductQuery(schema, r, "a", "zzz"); err == nil {
		t.Error("unknown attr should fail")
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	schema, err := NewSchema([]string{"x"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewEmptyDatabase(schema, Haar)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableMVCC(MVCCConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]int{9}); err == nil || errors.Is(err, ErrReadOnly) {
		t.Errorf("out-of-domain insert = %v, want a validation error", err)
	}
	if err := db.Delete([]int{-1}); err == nil || errors.Is(err, ErrReadOnly) {
		t.Errorf("out-of-domain delete = %v, want a validation error", err)
	}
	if db.TupleCount() != 0 {
		t.Fatal("failed updates must not change tuple count")
	}
	// Round-robin with an insufficient filter: query rewriting still works
	// (graceful dense degradation) but NewRoundRobinRun surfaces rewrite
	// errors for invalid queries.
	bad := &Query{Schema: schema}
	if _, err := db.NewRoundRobinRun(Batch{bad}); err == nil {
		t.Error("invalid query should fail round-robin construction")
	}
}

func TestLinfNormEval(t *testing.T) {
	p := LinfNorm()
	if got := p.Eval([]float64{-3, 2}); got != 3 {
		t.Fatalf("Linf = %g", got)
	}
}

func TestCoefficientMassMatchesEnumeration(t *testing.T) {
	schema, err := NewSchema([]string{"x"}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 100, 3)
	db, err := NewDatabase(dist, Haar)
	if err != nil {
		t.Fatal(err)
	}
	hat, err := dist.Transform(Haar)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, v := range hat {
		want += math.Abs(v)
	}
	got, err := db.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("CoefficientMass = %g, want %g", got, want)
	}
}
