// OLAP statistics: Section 3 of the paper shows that COUNT, SUM and
// SUM-PRODUCT vector queries support a "vast array of statistical
// techniques" at the range level. This example computes AVERAGE, VARIANCE,
// COVARIANCE and CORRELATION of age and salary per department-band range,
// all from one progressive Batch-Biggest-B run over the moment batch.
//
// Run with:
//
//	go run ./examples/olapstats
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// Relation: (age, salary band, department band).
	schema, err := repro.NewSchema([]string{"age", "salary", "dept"}, []int{64, 64, 8})
	if err != nil {
		log.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 80_000; i++ {
		dept := rng.Intn(8)
		age := 20 + rng.Intn(40)
		// Salary grows with age; the slope differs per department, so the
		// per-department age-salary correlation differs too.
		slope := 0.3 + 0.15*float64(dept)
		salary := int(slope*float64(age)) + rng.Intn(16)
		if salary > 63 {
			salary = 63
		}
		dist.AddTuple([]int{age, salary, dept})
	}

	// The moment batch needs degree-2 queries (sums of squares and the
	// age·salary cross product), so the filter must be at least Db6.
	db, err := repro.NewDatabase(dist, repro.Db6)
	if err != nil {
		log.Fatal(err)
	}

	// One range per department.
	var ranges []repro.Range
	for d := 0; d < 8; d++ {
		r, err := repro.NewRange(schema, []int{0, 0, d}, []int{63, 63, d})
		if err != nil {
			log.Fatal(err)
		}
		ranges = append(ranges, r)
	}
	moments, err := repro.NewMomentSet(schema, ranges, []string{"age", "salary"}, true)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Plan(moments.Batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("moment batch: %d queries (%d per range), %d shared coefficients\n\n",
		len(moments.Batch), moments.PerRange(), plan.DistinctCoefficients())

	// Progressive run; a quarter of the coefficients is plenty here.
	ctx := context.Background()
	run := db.NewRun(plan, repro.SSE())
	if _, err := run.StepBatchCtx(ctx, plan.DistinctCoefficients()/4); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("statistics after %d of %d retrievals:\n\n",
		run.Retrieved(), plan.DistinctCoefficients())

	printStats(moments, run.Estimates(), "progressive")

	if err := run.RunToCompletionCtx(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	printStats(moments, run.Estimates(), "exact")
}

func printStats(m *repro.MomentSet, results []float64, title string) {
	fmt.Printf("%-6s %8s %10s %10s %10s %12s %12s\n",
		title, "count", "avg(age)", "avg(sal)", "var(sal)", "cov(a,s)", "corr(a,s)")
	for d := range make([]struct{}, 8) {
		count, _ := m.Count(results, d)
		avgAge, _ := m.Average(results, d, "age", 16)
		avgSal, _ := m.Average(results, d, "salary", 16)
		varSal, _ := m.Variance(results, d, "salary", 16)
		cov, _ := m.Covariance(results, d, "age", "salary", 16)
		corr, _ := m.Correlation(results, d, "age", "salary", 16)
		fmt.Printf("dept %d %8.0f %10.2f %10.2f %10.2f %12.2f %12.3f\n",
			d, count, avgAge, avgSal, varSal, cov, corr)
	}
}
