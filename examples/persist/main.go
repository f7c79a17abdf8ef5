// Persistence and the query language: precompute the materialized wavelet
// view once, serialize it, reopen it elsewhere, and query it with textual
// aggregate statements — the deployment shape of a precomputation-based
// system like the paper's.
//
// Run with:
//
//	go run ./examples/persist
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// --- Producer side: ETL job builds and serializes the view. ---
	schema, err := repro.NewSchema(
		[]string{"store", "week", "amount"}, []int{16, 64, 64})
	if err != nil {
		log.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 120_000; i++ {
		store := rng.Intn(16)
		week := rng.Intn(64)
		base := 20 + 2*store + (week % 13)
		amount := base + rng.Intn(10)
		if amount > 63 {
			amount = 63
		}
		dist.AddTuple([]int{store, week, amount})
	}
	db, err := repro.NewDatabase(dist, repro.Db6)
	if err != nil {
		log.Fatal(err)
	}
	var blob bytes.Buffer
	if err := db.Save(&blob); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized view: %d tuples → %d coefficients → %d bytes\n\n",
		db.TupleCount(), db.NonzeroCoefficients(), blob.Len())

	// --- Consumer side: query service reopens the view; the raw data is
	// not needed anymore. ---
	svc, err := repro.LoadDatabase(&blob)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := repro.ParseBatch(svc.Schema(), `
		SUM(amount) WHERE week BETWEEN 0 AND 12 GROUP BY store(4);
		COUNT()     WHERE week BETWEEN 0 AND 12 GROUP BY store(4)
	`)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := svc.Plan(batch)
	if err != nil {
		log.Fatal(err)
	}
	run := svc.NewRun(plan, repro.SSE())
	if err := run.RunToCompletionCtx(context.Background()); err != nil {
		log.Fatal(err)
	}

	// The batch interleaves 4 SUM groups then 4 COUNT groups.
	fmt.Printf("%-14s %14s %10s %12s\n", "store group", "sales (Q1)", "tickets", "avg ticket")
	for g := 0; g < 4; g++ {
		sum := run.Estimates()[g]
		count := run.Estimates()[4+g]
		fmt.Printf("stores %2d-%2d %14.0f %10.0f %12.2f\n",
			4*g, 4*g+3, sum, count, sum/count)
	}
	fmt.Printf("\nanswered with %d retrievals against the reopened view\n", svc.Retrievals())
}
