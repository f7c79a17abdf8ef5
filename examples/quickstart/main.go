// Quickstart: load a small relation, evaluate a batch of range-sum queries
// progressively with Batch-Biggest-B, and watch the estimates converge to
// the exact answers.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
)

func main() {
	// A relation with two attributes on power-of-two domains: age ∈ [0,64),
	// salary band ∈ [0,64).
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{64, 64})
	if err != nil {
		log.Fatal(err)
	}

	// Load 50k synthetic employees: salary loosely increases with age.
	dist := repro.NewDistribution(schema)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50_000; i++ {
		age := 18 + rng.Intn(46)
		salary := age/2 + rng.Intn(20)
		if salary > 63 {
			salary = 63
		}
		dist.AddTuple([]int{age, salary})
	}

	// Build the materialized wavelet view. Db4 handles the degree-1 SUM
	// queries below (filter length 2δ+2 per the paper).
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database ready: %d tuples, %d stored coefficients\n\n",
		dist.TupleCount, db.NonzeroCoefficients())

	// A batch of queries: for each age decade, the head count and the total
	// salary — the drill-down pattern from the paper's introduction.
	var batch repro.Batch
	var labels []string
	for lo := 16; lo < 64; lo += 8 {
		r, err := repro.NewRange(schema, []int{lo, 0}, []int{lo + 7, 63})
		if err != nil {
			log.Fatal(err)
		}
		count := repro.CountQuery(schema, r)
		sum, err := repro.SumQuery(schema, r, "salary")
		if err != nil {
			log.Fatal(err)
		}
		batch = append(batch, count, sum)
		labels = append(labels,
			fmt.Sprintf("count(age %d-%d)", lo, lo+7),
			fmt.Sprintf("sum(salary, age %d-%d)", lo, lo+7))
	}

	plan, err := db.Plan(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d queries share %d distinct coefficients (%d without sharing, %.1fx)\n\n",
		len(batch), plan.DistinctCoefficients(), plan.TotalQueryCoefficients(), plan.SharingFactor())

	exact := batch.EvaluateDirect(dist)

	// Progressive evaluation, minimizing the sum of squared errors at every
	// step. Watch the worst relative error fall as coefficients stream in.
	ctx := context.Background()
	run := db.NewRun(plan, repro.SSE())
	fmt.Printf("%12s %22s\n", "retrieved", "worst relative error")
	for _, budget := range []int{1, 4, 16, 64, 256, 1024} {
		if _, err := run.StepBatchCtx(ctx, budget-run.Retrieved()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12d %22.4g\n", run.Retrieved(), worstRel(run.Estimates(), exact))
		if run.Done() {
			break
		}
	}
	if err := run.RunToCompletionCtx(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%12d %22.4g   (exact)\n\n", run.Retrieved(), worstRel(run.Estimates(), exact))

	fmt.Printf("%-28s %14s\n", "query", "result")
	for i, v := range run.Estimates() {
		fmt.Printf("%-28s %14.0f\n", labels[i], v)
	}
}

func worstRel(est, exact []float64) float64 {
	var worst float64
	for i := range exact {
		if exact[i] == 0 {
			continue
		}
		if e := math.Abs(est[i]-exact[i]) / math.Abs(exact[i]); e > worst {
			worst = e
		}
	}
	return worst
}
